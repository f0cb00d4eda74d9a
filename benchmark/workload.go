package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/artifact"
	"concord/internal/contracts"
	"concord/internal/core"
	"concord/internal/server"
	"concord/internal/synth"
)

const (
	// workers bounds every pool the benchmark starts: engine
	// parallelism, shard workers, worker processes and serve clients.
	// It is fixed so that figures do not depend on the host's core
	// count.
	workers = 2
	// setupReps is how many times set-up is repeated to report its
	// median.
	setupReps = 3
	// serveReps is how many serve repetitions a round runs. Several
	// short repetitions keep the serve medians steady when the host
	// stalls the VM for part of a run.
	serveReps = 3
)

// env is one workload's prepared state: inputs, engine, and a serving
// server with the serve set resident.
type env struct {
	sh      shape
	in      *inputs
	opts    core.Options
	eng     *core.Engine
	srv     *server.Server
	served  chan error
	url     string
	client  *http.Client
	fp      string
	serve   *contracts.Set
	workDir string
	exe     string
}

// setup generates the inputs, builds the engine and the server, and
// learns and compiles the serve set.
func setup(sh shape, seed int64, workDir string) (*env, error) {
	in, err := generate(sh, seed)
	if err != nil {
		return nil, err
	}
	// The paper's defaults (S=5, C=0.96) with the fixed worker count.
	opts := core.DefaultOptions()
	opts.Parallelism = workers
	eng, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("resolve own executable: %w", err)
	}
	srv, err := server.New(opts, server.Options{})
	if err != nil {
		return nil, err
	}
	e := &env{sh: sh, in: in, opts: opts, eng: eng, srv: srv, workDir: workDir, exe: exe}
	ctx := context.Background()
	lr, err := eng.LearnContext(ctx, in.serveTrain, in.serveMeta)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("learn serve set: %w", err)
	}
	e.serve = lr.Set
	if e.fp, err = srv.SetDefaultContracts(ctx, lr.Set); err != nil {
		e.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.url = "http://" + ln.Addr().String()
	e.served = make(chan error, 1)
	go func() { e.served <- srv.Serve(ln) }()
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers, DisableCompression: true}}
	return e, nil
}

// close stops the server and waits for it to return.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // a drain error leaves nothing running
	if e.served != nil {
		<-e.served
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
}

// engine builds a variant of the benchmark engine.
func (e *env) engine(mod func(*core.Options)) (*core.Engine, error) {
	o := e.opts
	mod(&o)
	return core.New(o)
}

// runner accumulates one run's samples, operation counts and faults.
type runner struct {
	samples   map[string][]float64
	attempted int
	failed    int
	wrong     []error
	record    bool
}

func newRunner() *runner { return &runner{samples: make(map[string][]float64)} }

func (r *runner) add(name string, v float64) {
	if r.record {
		r.samples[name] = append(r.samples[name], v)
	}
}

// fail records an output that disagrees with its check.
func (r *runner) fail(err error) {
	if err != nil {
		r.wrong = append(r.wrong, err)
	}
}

// op runs one timed operation, sampling the peak heap into heapMetric
// when it is named. Before it, a collection returns the previous
// operation's memory to the OS, so every operation starts from the same
// state rather than racing the background scavenger. A failed operation
// counts in failed and records no sample.
func (r *runner) op(metric, heapMetric string, fn func() error) {
	debug.FreeOSMemory()
	var hp *heapPeak
	if heapMetric != "" {
		hp = startHeapPeak()
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	peak := hp.stop()
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "benchmark: %s failed: %v\n", metric, err)
		return
	}
	r.add(metric, d.Seconds())
	if heapMetric != "" {
		r.add(heapMetric, peak)
	}
}

// heapPeak samples the live heap every heapEvery until stopped.
type heapPeak struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const (
	heapMetricName = "/memory/classes/heap/objects:bytes"
	heapEvery      = 5 * time.Millisecond
)

func startHeapPeak() *heapPeak {
	h := &heapPeak{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetricName}}
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MB; nil-safe.
func (h *heapPeak) stop() float64 {
	if h == nil {
		return 0
	}
	close(h.done)
	h.wg.Wait()
	return float64(h.peak) / 1e6
}

// checkBytes is a check result's canonical form: what two runs must
// agree on byte for byte.
func checkBytes(res *core.CheckResult) ([]byte, error) {
	if len(res.Diagnostics) > 0 {
		return nil, fmt.Errorf("check reported %d diagnostics, first: %v", len(res.Diagnostics), res.Diagnostics[0])
	}
	return json.Marshal(struct {
		V []contracts.Violation
		C core.CoverageSummary
		S core.ProcessStats
	}{res.Violations, res.Coverage, res.Stats})
}

// outputs are the results one round produced, compared across rounds.
type outputs struct {
	set                   *contracts.Set
	setJSON               []byte
	cold, store, re, dist []byte
	coldRes, reRes        *core.CheckResult
}

func sameBytes(what string, a, b []byte) error {
	if !bytes.Equal(a, b) {
		return fmt.Errorf("%s differ (%d vs %d bytes)", what, len(a), len(b))
	}
	return nil
}

// runWorkload is the untraced end-to-end run: set-up repeated, one
// untimed warm-up round, then measured rounds until seconds have
// passed, then the correctness checks.
func runWorkload(sh shape, seed int64, seconds int, base string) (*result, error) {
	workDir, err := makeWorkDir(base)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	r := newRunner()
	r.record = true
	var e *env
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		e, err = setup(sh, seed, workDir)
		if err != nil {
			return nil, err
		}
		r.add("setup_s", time.Since(t0).Seconds())
	}
	defer e.close()

	sv, err := newServeCheck(e, seed)
	if err != nil {
		return nil, err
	}
	// Warm-up: one untimed round. Its learn runs through the in-process
	// sharded driver; the measured rounds' unsharded learns must produce
	// the same bytes.
	r.record = false
	warm, err := e.round(r, sv, 0, true)
	if err != nil {
		return nil, err
	}
	r.fail(e.verify(warm, sv))
	r.record = true
	start := time.Now()
	for round := 1; round == 1 || time.Since(start) < time.Duration(seconds)*time.Second; round++ {
		out, err := e.round(r, sv, round, false)
		if err != nil {
			return nil, err
		}
		r.fail(sameBytes("learned sets of the sharded warm-up and an unsharded learn", warm.setJSON, out.setJSON))
		r.fail(sameBytes("cold check results of two rounds", warm.cold, out.cold))
		r.fail(sameBytes("recheck results of two rounds", warm.re, out.re))
	}
	if n := e.srv.Registry().Stats().Compiles; n != 1 {
		r.fail(fmt.Errorf("server compiled %d contract sets, want 1", n))
	}
	return r.result(names(endToEnd)), nil
}

// result reports each metric's median and the run's verdict.
func (r *runner) result(names []string) *result {
	res := &result{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, err := range r.wrong {
		fmt.Fprintln(os.Stderr, "benchmark: incorrect output:", err)
	}
	for _, n := range names {
		if s := r.samples[n]; len(s) > 0 {
			res.Metrics[n] = metricValue{Value: median(s), Unit: unitOf(n)}
			fmt.Fprintf(os.Stderr, "%-28s median %-12.6g of %.4g\n", n, median(s), s)
		} else {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "benchmark: no sample for", n)
		}
	}
	return res
}

func median(s []float64) float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// round runs every operation once — learn, cold check, cache-filling
// check, incremental recheck, process-backend check — and then the
// serve repetitions.
func (e *env) round(r *runner, sv *serveCheck, round int, sharded bool) (*outputs, error) {
	ctx := context.Background()
	out := &outputs{}
	learner := e.eng
	if sharded {
		var err error
		if learner, err = e.engine(func(o *core.Options) { o.Shards, o.ShardWorkers = workers, workers }); err != nil {
			return nil, err
		}
	}
	r.op("learn_s", "learn_peak_heap_mb", func() error {
		lr, err := learner.LearnContext(ctx, e.in.train, e.in.meta)
		if err == nil {
			out.set = lr.Set
		}
		return err
	})
	if out.set == nil {
		return nil, errors.New("learn failed")
	}
	var err error
	if out.setJSON, err = json.Marshal(out.set); err != nil {
		return nil, err
	}

	checker, err := e.engine(func(o *core.Options) { o.Shards, o.ShardWorkers = e.sh.shards, workers })
	if err != nil {
		return nil, err
	}
	r.op("check_s", "check_peak_heap_mb", func() error {
		res, err := checker.CheckContext(ctx, out.set, e.in.check, e.in.meta)
		if err == nil {
			out.coldRes = res
			out.cold, err = checkBytes(res)
		}
		return err
	})

	cache, err := artifact.Open(filepath.Join(e.workDir, fmt.Sprintf("cache-%d", round)))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cache.BaseDir())
	warm, err := e.engine(func(o *core.Options) {
		o.Shards, o.ShardWorkers = e.sh.shards, workers
		o.Artifacts, o.Incremental = cache, true
	})
	if err != nil {
		return nil, err
	}
	r.op("check_store_s", "", func() error {
		res, err := warm.CheckContext(ctx, out.set, e.in.check, e.in.meta)
		if err == nil {
			out.store, err = checkBytes(res)
		}
		return err
	})
	r.op("recheck_s", "", func() error {
		res, err := warm.CheckContext(ctx, out.set, e.in.edited, e.in.meta)
		if err == nil {
			out.reRes = res
			out.re, err = checkBytes(res)
		}
		return err
	})

	dist, err := e.engine(func(o *core.Options) {
		o.Shards, o.ShardWorkers = max(e.sh.shards, workers), workers
		o.ShardBackend, o.ShardWorkerCommand = core.ShardBackendProcess, []string{e.exe}
	})
	if err != nil {
		return nil, err
	}
	r.op("dist_check_s", "", func() error {
		res, err := dist.CheckContext(ctx, out.set, e.in.check, e.in.meta)
		if err == nil {
			out.dist, err = checkBytes(res)
		}
		return err
	})
	r.fail(sameBytes("cold and cache-filling check results", out.cold, out.store))
	r.fail(sameBytes("cold and process-backend check results", out.cold, out.dist))

	for i := 0; i < serveReps; i++ {
		debug.FreeOSMemory()
		r.fail(sv.rep(r))
	}
	return out, nil
}

// verify runs the run's once-only checks on the warm-up round: the
// mined contracts' evidence and the minimization, the checked violations
// against the independent evaluator (planted faults and edits included),
// the planted faults caught, and the recheck against a cold check of the
// edited corpus.
func (e *env) verify(out *outputs, sv *serveCheck) error {
	ctx := context.Background()
	train, _, err := e.eng.ProcessContext(ctx, e.in.train, e.in.meta)
	if err != nil {
		return err
	}
	// The evidence is checked on the mined set, before minimization,
	// and minimization against it.
	miner, err := e.engine(func(o *core.Options) { o.Minimize = false })
	if err != nil {
		return err
	}
	mined, err := miner.LearnContext(ctx, e.in.train, e.in.meta)
	if err != nil {
		return err
	}
	minedJSON, err := json.Marshal(mined.Set)
	if err != nil {
		return err
	}
	ev, err := checkEvidence(minedJSON, train, e.opts.Support, e.opts.Confidence)
	if err != nil {
		return err
	}
	if err := checkMinimized(minedJSON, out.setJSON); err != nil {
		return err
	}
	if out.coldRes == nil || out.reRes == nil {
		return errors.New("a check failed; nothing to verify")
	}
	checked, _, err := e.eng.ProcessContext(ctx, e.in.check, e.in.meta)
	if err != nil {
		return err
	}
	if err := compareViolations(out.setJSON, checked, out.coldRes.Violations); err != nil {
		return fmt.Errorf("cold check: %w", err)
	}
	caught, dropped, err := e.checkFaults(out.set, out.coldRes.Violations)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmark: verified %d present, %d ordering and %d relational contracts; %d of %d planted faults drew a violation, %d of them drops of covered leaf lines\n",
		ev.present, ev.ordering, ev.relational, caught, len(e.in.faults), dropped)
	edited, _, err := e.eng.ProcessContext(ctx, e.in.edited, e.in.meta)
	if err != nil {
		return err
	}
	if err := compareViolations(out.setJSON, edited, out.reRes.Violations); err != nil {
		return fmt.Errorf("recheck: %w", err)
	}
	cold, err := e.eng.CheckContext(ctx, out.set, e.in.edited, e.in.meta)
	if err != nil {
		return err
	}
	coldBytes, err := checkBytes(cold)
	if err != nil {
		return err
	}
	if err := sameBytes("recheck and cold check of the edited corpus", out.re, coldBytes); err != nil {
		return err
	}
	return sv.verifyExpected()
}

// checkFaults checks that the planted faults are caught where the
// contracts promise it. By the definition of coverage, removing a line
// that the clean config's coverage marks covered violates a contract, so
// every drop-line fault on such a line must draw a violation its clean
// config does not; and at least one planted fault must draw one. The
// engine's coverage is exact for leaf lines only (removing a block
// header re-parents its children), so headers are left out. got are the
// cold check's violations. Unique violations depend on the other
// configs of the corpus and are left out too. It returns the number of
// faults that drew a violation and the number of covered leaf lines
// dropped.
func (e *env) checkFaults(set *contracts.Set, got []contracts.Violation) (caught, dropped int, err error) {
	ctx := context.Background()
	clean := make([]core.Source, len(e.in.faults))
	for i, f := range e.in.faults {
		clean[i] = core.Source{Name: e.in.check[f.config].Name, Text: f.clean}
	}
	res, err := e.eng.CheckContext(ctx, set, clean, e.in.meta)
	if err != nil {
		return 0, 0, err
	}
	lines, err := e.eng.CoverageLinesContext(ctx, set, clean, e.in.meta)
	if err != nil {
		return 0, 0, err
	}
	covered := make(map[string]bool)
	for _, lc := range lines {
		if lc.Covered {
			covered[fmt.Sprintf("%s:%d", lc.File, lc.Line)] = true
		}
	}
	byFile := func(vs []contracts.Violation) map[string]map[string]int {
		m := make(map[string]map[string]int)
		for _, v := range vs {
			if v.Category == contracts.CatUnique {
				continue
			}
			if m[v.File] == nil {
				m[v.File] = make(map[string]int)
			}
			m[v.File][string(v.Category)+"|"+v.ContractID]++
		}
		return m
	}
	faulted, before := byFile(got), byFile(res.Violations)
	for _, f := range e.in.faults {
		name := e.in.check[f.config].Name
		drew := false
		for k, n := range faulted[name] {
			if n > before[name][k] {
				drew = true
				break
			}
		}
		if drew {
			caught++
		}
		if f.kind == synth.MutDropLine && covered[fmt.Sprintf("%s:%d", name, f.line)] && isLeaf(f.clean, f.line) {
			if !drew {
				return 0, 0, fmt.Errorf("%s: dropping covered line %d drew no violation", name, f.line)
			}
			dropped++
		}
	}
	if caught == 0 {
		return 0, 0, fmt.Errorf("none of the %d planted faults drew a violation", len(e.in.faults))
	}
	return caught, dropped, nil
}

// isLeaf reports whether 1-based line n of text opens no block: the next
// line that is not blank is indented no deeper.
func isLeaf(text []byte, n int) bool {
	lines := strings.Split(string(text), "\n")
	indent := func(l string) int { return len(l) - len(strings.TrimLeft(l, " \t")) }
	for _, next := range lines[n:] {
		if strings.TrimSpace(next) != "" {
			return indent(next) <= indent(lines[n-1])
		}
	}
	return true
}

// makeWorkDir makes the run's scratch directory under base.
func makeWorkDir(base string) (string, error) {
	dir := filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("make work dir: %w", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	return abs, nil
}

// serveCheck drives the serve repetitions: a seeded request schedule
// over the pool, the expected one-shot answer for every pool config,
// and the pre-encoded request bodies.
type serveCheck struct {
	e        *env
	schedule []request
	bodies   [][]byte
	wantChk  [][]byte
	wantCov  [][]byte
	docs     []byte
}

type request struct {
	pool     int
	coverage bool
}

func newServeCheck(e *env, seed int64) (*serveCheck, error) {
	sv := &serveCheck{e: e}
	rng := rand.New(rand.NewSource(seed + 7919))
	for i := 0; i < e.sh.requests; i++ {
		sv.schedule = append(sv.schedule, request{pool: rng.Intn(len(e.in.pool)), coverage: rng.Intn(e.sh.coverageEvery) == 0})
	}
	var meta []server.SourceJSON
	for _, m := range e.in.serveMeta {
		meta = append(meta, server.SourceJSON{Name: m.Name, Text: string(m.Text)})
	}
	oneShot, err := core.New(e.opts)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for _, src := range e.in.pool {
		body, err := json.Marshal(server.CheckRequest{
			Fingerprint: e.fp,
			Configs:     []server.SourceJSON{{Name: src.Name, Text: string(src.Text)}},
			Metadata:    meta,
		})
		if err != nil {
			return nil, err
		}
		sv.bodies = append(sv.bodies, body)
		res, err := oneShot.CheckContext(ctx, e.serve, []core.Source{src}, e.in.serveMeta)
		if err != nil {
			return nil, err
		}
		want, err := checkBytes(res)
		if err != nil {
			return nil, err
		}
		sv.wantChk = append(sv.wantChk, want)
		lines, err := oneShot.CoverageLinesContext(ctx, e.serve, []core.Source{src}, e.in.serveMeta)
		if err != nil {
			return nil, err
		}
		if want, err = json.Marshal(lines); err != nil {
			return nil, err
		}
		sv.wantCov = append(sv.wantCov, want)
	}
	if sv.docs, err = json.Marshal(e.serve); err != nil {
		return nil, err
	}
	return sv, nil
}

// verifyExpected checks the one-shot answers the serve responses are
// compared with against the independent evaluator.
func (sv *serveCheck) verifyExpected() error {
	e := sv.e
	ctx := context.Background()
	for i, src := range e.in.pool {
		cfgs, _, err := e.eng.ProcessContext(ctx, []core.Source{src}, e.in.serveMeta)
		if err != nil {
			return err
		}
		var got struct{ V []contracts.Violation }
		if err := json.Unmarshal(sv.wantChk[i], &got); err != nil {
			return err
		}
		if err := compareViolations(sv.docs, cfgs, got.V); err != nil {
			return fmt.Errorf("serve config %s: %w", src.Name, err)
		}
	}
	return nil
}

// rep sends the schedule from closed-loop clients, records per-request
// latency, the median and 90th percentile and the completed-request
// rate, and compares every response with its one-shot answer.
func (sv *serveCheck) rep(r *runner) error {
	n := len(sv.schedule)
	lat := make([]float64, n)
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				q := sv.schedule[i]
				path := "/v1/check"
				if q.coverage {
					path = "/v1/coverage"
				}
				s := time.Now()
				bodies[i], errs[i] = sv.post(path, sv.bodies[q.pool])
				lat[i] = float64(time.Since(s)) / float64(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	r.attempted += n
	var ok []float64
	var wrong error
	for i, q := range sv.schedule {
		if errs[i] != nil {
			r.failed++
			fmt.Fprintln(os.Stderr, "benchmark: serve request failed:", errs[i])
			continue
		}
		ok = append(ok, lat[i])
		if err := sv.compare(q, bodies[i]); err != nil && wrong == nil {
			wrong = err
		}
	}
	if len(ok) == 0 {
		return wrong
	}
	r.add("serve_p50_ms", median(ok))
	r.add("serve_p90_ms", percentile(ok, 0.90))
	r.add("serve_rps", float64(len(ok))/wall)
	return wrong
}

func (sv *serveCheck) post(path string, body []byte) ([]byte, error) {
	resp, err := sv.e.client.Post(sv.e.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// compare checks one response against the one-shot answer for its
// config.
func (sv *serveCheck) compare(q request, body []byte) error {
	var got, want []byte
	if q.coverage {
		var resp server.CoverageResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		var err error
		if got, err = json.Marshal(resp.Lines); err != nil {
			return err
		}
		want = sv.wantCov[q.pool]
	} else {
		var resp server.CheckResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Violations) == 0 {
			resp.Violations = nil
		}
		var err error
		if got, err = checkBytes(&core.CheckResult{Violations: resp.Violations, Coverage: resp.Coverage, Stats: resp.Stats, Diagnostics: resp.Diagnostics}); err != nil {
			return err
		}
		want = sv.wantChk[q.pool]
	}
	return sameBytes(fmt.Sprintf("served and one-shot answers for %s", sv.e.in.pool[q.pool].Name), got, want)
}

// percentile returns the p-quantile by nearest rank.
func percentile(s []float64, p float64) float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(p*float64(len(c)))) - 1
	return c[max(i, 0)]
}
