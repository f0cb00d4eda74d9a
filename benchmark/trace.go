package main

// The traced run. It re-drives each stage serially one layer at a time,
// timing every call into a layer's public functions from outside the
// program, and compares the re-driven outputs with the untraced
// LearnContext and CheckContext on the same inputs. The unattributed
// remainder of a stage is its untraced wall time minus the self times
// of its layers; the overhead ratio is the traced wall time over the
// untraced one.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"concord/internal/artifact"
	"concord/internal/contracts"
	"concord/internal/core"
	"concord/internal/format"
	"concord/internal/intern"
	"concord/internal/lexer"
	"concord/internal/minimize"
	"concord/internal/mining"
	"concord/internal/shardrpc"
	"concord/internal/telemetry"
)

// layers accumulates one traced round's per-layer figures.
type layers map[string]float64

// timeIt adds fn's wall time in seconds to l[name].
func (l layers) timeIt(name string, fn func()) {
	t0 := time.Now()
	fn()
	l[name] += time.Since(t0).Seconds()
}

// runTraced is the traced run: set-up once, then traced rounds until
// seconds have passed, reporting each per-layer metric's median.
func runTraced(sh shape, seed int64, seconds int, base string) (*result, error) {
	workDir, err := makeWorkDir(base)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	e, err := setup(sh, seed, workDir)
	if err != nil {
		return nil, err
	}
	defer e.close()
	sv, err := newServeCheck(e, seed)
	if err != nil {
		return nil, err
	}
	r := newRunner()
	r.record = true
	r.fail(sv.verifyExpected())
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < time.Duration(seconds)*time.Second; round++ {
		l, err := e.tracedRound(r, sv, round)
		if err != nil {
			return nil, err
		}
		for k, v := range l {
			r.add(k, v)
		}
	}
	return r.result(names(perLayer)), nil
}

// processed is one corpus lexed by the re-driven format layer.
type processed struct {
	cfgs []*lexer.Config
	own  []int // lines of each config before the metadata lines
	tab  *intern.Table
}

// process re-drives format detection, processing and lexing over
// sources the way one engine run does: one lexer cache and intern
// table for the corpus, metadata lines appended to every config.
func (l layers) process(lx *lexer.Lexer, sources, meta []core.Source) *processed {
	cache := lexer.NewCache(0)
	p := &processed{tab: intern.NewTable()}
	opts := format.Options{Embed: true, Limits: format.DefaultLimits(), Cache: cache, Interns: p.tab}
	metaLines := processMeta(lx, meta, opts)
	for _, src := range sources {
		l.timeIt("format.detect_s", func() { format.Detect(src.Text) })
		var cfg lexer.Config
		l.timeIt("format.process_s", func() { cfg = format.Process(src.Name, src.Text, lx, opts) })
		l["format.lines"] += float64(cfg.SourceLines)
		p.own = append(p.own, len(cfg.Lines))
		cfg.Lines = append(cfg.Lines, metaLines...)
		p.cfgs = append(p.cfgs, &cfg)
	}
	hits, misses := cache.Stats()
	l["lexer.hits"] += float64(hits)
	l["lexer.lookups"] += float64(hits + misses)
	// Lexing alone, over the same configuration lines with a fresh
	// cache: format.process_s includes it, and the format layer's self
	// time is the difference.
	relex := lexer.NewCache(0)
	l.timeIt("lexer.lex_s", func() {
		for i, cfg := range p.cfgs {
			for _, line := range cfg.Lines[:p.own[i]] {
				lx.LexCached(relex, line.Raw)
			}
		}
	})
	return p
}

// processMeta lexes the metadata files into @meta-prefixed lines, as
// the engine does before appending them to every configuration.
func processMeta(lx *lexer.Lexer, meta []core.Source, opts format.Options) []lexer.Line {
	var out []lexer.Line
	for _, m := range meta {
		cfg := format.Process(m.Name, m.Text, lx, opts)
		for _, line := range cfg.Lines {
			line.Meta = true
			line.Pattern = "@meta" + line.Pattern
			line.Display = "@meta" + line.Display
			line.Text = "@meta" + line.Text
			line.PatternID = opts.Interns.ID(line.Pattern)
			out = append(out, line)
		}
	}
	return out
}

// tracedRound runs one traced round: the learn and check stages
// untraced and re-driven, then the artifact, shard wire, dispatch and
// server layers.
func (e *env) tracedRound(r *runner, sv *serveCheck, round int) (layers, error) {
	ctx := context.Background()
	l := layers{}
	serial, err := e.engine(func(o *core.Options) { o.Parallelism = 1 })
	if err != nil {
		return nil, err
	}
	lx, err := lexer.New()
	if err != nil {
		return nil, err
	}

	// Learn stage.
	debug.FreeOSMemory()
	t0 := time.Now()
	lr, err := serial.LearnContext(ctx, e.in.train, e.in.meta)
	learnWall := time.Since(t0).Seconds()
	r.attempted++
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	before := l.snapshot()
	t0 = time.Now()
	set, mergePass, err := l.learn(lx, e.opts, e.in.train, e.in.meta)
	tracedLearn := time.Since(t0).Seconds()
	r.attempted++
	if err != nil {
		return nil, err
	}
	if err := mergePass(); err != nil {
		return nil, err
	}
	want, err := json.Marshal(lr.Set)
	if err != nil {
		return nil, err
	}
	got, err := json.Marshal(set)
	if err != nil {
		return nil, err
	}
	r.fail(sameBytes("re-driven and LearnContext learned sets", got, want))
	learnSelf := l.since(before, "format.process_s", "mining.fold_s", "mining.mine_s", "minimize.minimize_s")

	// Check stage.
	debug.FreeOSMemory()
	t0 = time.Now()
	cr, err := serial.CheckContext(ctx, lr.Set, e.in.check, e.in.meta)
	checkWall := time.Since(t0).Seconds()
	r.attempted++
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	before = l.snapshot()
	t0 = time.Now()
	tc, err := l.check(lx, lr.Set, e.in.check, e.in.meta)
	tracedCheck := time.Since(t0).Seconds()
	r.attempted++
	if err != nil {
		return nil, err
	}
	r.fail(sameViolations(tc.violations, cr.Violations))
	if tc.covered != cr.Coverage.CoveredLines {
		r.fail(fmt.Errorf("re-driven coverage covers %d lines, CheckContext %d", tc.covered, cr.Coverage.CoveredLines))
	}
	checkSelf := l.since(before, "format.process_s", "contracts.compile_s", "contracts.check_s", "contracts.coverage_s", "contracts.unique_reduce_s")

	l["core.learn_wall_s"] = learnWall
	l["core.check_wall_s"] = checkWall
	l["core.learn_unattributed_s"] = learnWall - learnSelf
	l["core.check_unattributed_s"] = checkWall - checkSelf
	l["core.unattributed_s"] = learnWall + checkWall - learnSelf - checkSelf
	l["trace.learn_overhead_ratio"] = tracedLearn / learnWall
	l["trace.check_overhead_ratio"] = tracedCheck / checkWall
	l["trace.overhead_ratio"] = (tracedLearn + tracedCheck) / (learnWall + checkWall)

	if err := l.artifacts(e, tc, lr.Set, round); err != nil {
		return nil, err
	}
	if err := l.wire(e, tc, want); err != nil {
		return nil, err
	}
	if err := l.dispatch(e, lr.Set); err != nil {
		return nil, err
	}
	if err := l.serve(e, sv, r); err != nil {
		return nil, err
	}
	l.ratios()
	return l, nil
}

func (l layers) snapshot() layers {
	c := layers{}
	for k, v := range l {
		c[k] = v
	}
	return c
}

// since sums the growth of the named layers since snapshot b.
func (l layers) since(b layers, names ...string) float64 {
	s := 0.0
	for _, n := range names {
		s += l[n] - b[n]
	}
	return s
}

// ratios turns the accumulated counts into the reported ratios and
// drops the helper entries.
func (l layers) ratios() {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	l["lexer.cache_hit_ratio"] = div(l["lexer.hits"], l["lexer.lookups"])
	l["mining.accept_ratio"] = div(l["mining.accepted"], l["mining.candidates"])
	l["contracts.skip_ratio"] = div(l["contracts.skipped"], l["contracts.skipped"]+l["contracts.evaluated"])
	l["artifact.hit_ratio"] = div(l["artifact.hits"], l["artifact.hits"]+l["artifact.misses"])
	for _, k := range []string{"lexer.hits", "lexer.lookups", "mining.accepted", "contracts.skipped", "contracts.evaluated", "artifact.hits", "artifact.misses"} {
		delete(l, k)
	}
}

// learn re-drives the learn stage: processing, the statistics fold into
// one accumulator, the mine and minimization — the work of the
// unsharded LearnContext. The merge the sharded drivers add is not part
// of that work: learn returns it as a separate pass for the caller to
// run outside the stage's timing.
func (l layers) learn(lx *lexer.Lexer, opts core.Options, train, meta []core.Source) (*contracts.Set, func() error, error) {
	p := l.process(lx, train, meta)
	rec := telemetry.NewRecorder()
	m := mining.New(mining.Options{
		Support: opts.Support, Confidence: opts.Confidence, ScoreThreshold: opts.ScoreThreshold,
		Parallelism: 1, Transforms: core.Transforms(), Telemetry: rec,
	})
	acc := m.NewStatsAccumulator(p.tab)
	var err error
	l.timeIt("mining.fold_s", func() {
		for _, cfg := range p.cfgs {
			if err = acc.Fold(cfg); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	var set *contracts.Set
	l.timeIt("mining.mine_s", func() { set, err = m.MineAccumulated(context.Background(), acc) })
	if err != nil {
		return nil, nil, err
	}
	rep := rec.Snapshot()
	for name, v := range rep.Counters {
		switch {
		case strings.HasPrefix(name, "mine.") && strings.HasSuffix(name, ".candidates"):
			l["mining.candidates"] += float64(v)
		case strings.HasPrefix(name, "mine.") && strings.HasSuffix(name, ".accepted"):
			l["mining.accepted"] += float64(v)
		}
	}
	l["mining.contracts"] += float64(set.Len())
	var res minimize.Result
	l.timeIt("minimize.minimize_s", func() { set, res = minimize.Set(set) })
	l["minimize.reduction_factor"] = res.ReductionFactor()
	return set, func() error { return l.merge(m, p, acc) }, nil
}

// merge folds each half of the corpus into an accumulator of its own
// and times their Merge. The merged accumulator must count the same
// configs and candidates as whole, the single accumulator of the whole
// corpus.
func (l layers) merge(m *mining.Miner, p *processed, whole *mining.StatsAccumulator) error {
	half := len(p.cfgs) / 2
	a, b := m.NewStatsAccumulator(p.tab), m.NewStatsAccumulator(p.tab)
	for i, cfg := range p.cfgs {
		acc := a
		if i >= half {
			acc = b
		}
		if err := acc.Fold(cfg); err != nil {
			return err
		}
	}
	l.timeIt("mining.merge_s", func() { a.Merge(b) })
	if a.NConfigs() != whole.NConfigs() || a.Candidates() != whole.Candidates() {
		return fmt.Errorf("merged halves hold %d configs and %d candidates, the whole corpus %d and %d",
			a.NConfigs(), a.Candidates(), whole.NConfigs(), whole.Candidates())
	}
	return nil
}

// traceCheck is the re-driven check stage's output, reused by the
// artifact and wire layers.
type traceCheck struct {
	p          *processed
	checker    *contracts.Checker
	perConfig  [][]contracts.Violation
	coverage   []*contracts.CoverageResult
	violations []contracts.Violation
	covered    int
}

// check re-drives the check stage: processing, compilation, the
// per-config check and coverage, and the cross-config Unique combine.
func (l layers) check(lx *lexer.Lexer, set *contracts.Set, sources, meta []core.Source) (*traceCheck, error) {
	tc := &traceCheck{p: l.process(lx, sources, meta)}
	rec := telemetry.NewRecorder()
	l.timeIt("contracts.compile_s", func() {
		tc.checker = contracts.NewChecker(set, contracts.WithTransforms(core.Transforms()),
			contracts.WithTelemetry(rec), contracts.WithInterns(tc.p.tab))
	})
	for _, cfg := range tc.p.cfgs {
		var vs []contracts.Violation
		l.timeIt("contracts.check_s", func() { vs = tc.checker.Check(cfg) })
		var cov *contracts.CoverageResult
		l.timeIt("contracts.coverage_s", func() { cov = tc.checker.Coverage(cfg) })
		if cov == nil {
			return nil, fmt.Errorf("coverage of %s failed", cfg.Name)
		}
		tc.perConfig = append(tc.perConfig, vs)
		tc.coverage = append(tc.coverage, cov)
		tc.violations = append(tc.violations, vs...)
		tc.covered += len(cov.Covered)
	}
	var unique []contracts.Violation
	l.timeIt("contracts.unique_reduce_s", func() {
		comb := tc.checker.UniqueCombiner()
		acc := comb.NewAccumulator()
		for _, cfg := range tc.p.cfgs {
			acc.Add(cfg)
		}
		unique = comb.Reduce([]contracts.Accumulator{acc})
	})
	tc.violations = append(tc.violations, unique...)
	l["contracts.violations"] += float64(len(tc.violations))
	l["contracts.evaluated"] += float64(rec.Counter("check.contracts_evaluated"))
	l["contracts.skipped"] += float64(rec.Counter("check.contracts_skipped_by_index"))
	return tc, nil
}

// categoryCounts reduces a coverage result to covered lines per
// category, the form cached and shipped between processes.
func categoryCounts(cov *contracts.CoverageResult) map[contracts.Category]int {
	by := make(map[contracts.Category]int, len(cov.ByCategory))
	for cat, lines := range cov.ByCategory {
		by[cat] = len(lines)
	}
	return by
}

// sameViolations compares two violation lists as multisets.
func sameViolations(a, b []contracts.Violation) error {
	ka, err := violationKeys(a)
	if err != nil {
		return err
	}
	kb, err := violationKeys(b)
	if err != nil {
		return err
	}
	if len(ka) != len(kb) {
		return fmt.Errorf("re-driven check found %d violations, CheckContext %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Errorf("re-driven check and CheckContext differ: %s vs %s", ka[i], kb[i])
		}
	}
	return nil
}

func violationKeys(vs []contracts.Violation) ([]string, error) {
	keys := make([]string, len(vs))
	for i := range vs {
		b, err := json.Marshal(vs[i])
		if err != nil {
			return nil, err
		}
		keys[i] = string(b)
	}
	sort.Strings(keys)
	return keys, nil
}

// artifacts re-drives the artifact codec and cache over the checked
// corpus — lex and check entries encoded, stored, loaded and decoded,
// every decode re-encoded to the stored bytes — and reads the hit ratio
// from the engine's counters on an incremental recheck after the edit.
func (l layers) artifacts(e *env, tc *traceCheck, set *contracts.Set, round int) error {
	cache, err := artifact.Open(filepath.Join(e.workDir, fmt.Sprintf("trace-cache-%d", round)))
	if err != nil {
		return err
	}
	defer os.RemoveAll(cache.BaseDir())
	tab := intern.NewTable()
	for i, cfg := range tc.p.cfgs {
		own := *cfg
		own.Lines = cfg.Lines[:tc.p.own[i]]
		var payload []byte
		var ok bool
		l.timeIt("artifact.encode_s", func() { payload, ok = artifact.EncodeConfig(&own) })
		if !ok {
			return fmt.Errorf("config %s cannot be encoded", cfg.Name)
		}
		cov := tc.coverage[i]
		var entry []byte
		l.timeIt("artifact.encode_s", func() {
			entry = artifact.EncodeCheckEntry(&artifact.CheckEntry{
				Violations: tc.perConfig[i], SourceLines: cov.SourceLines, Covered: len(cov.Covered),
				ByCategory: categoryCounts(cov), Unique: tc.checker.UniqueContributions(cfg),
			})
		})
		key := artifact.HashBytes("benchmark/trace", []byte(cfg.Name))
		for _, kv := range []struct {
			kind    artifact.Kind
			payload []byte
		}{{artifact.KindLex, payload}, {artifact.KindCheck, entry}} {
			l.timeIt("artifact.store_s", func() { err = cache.Store(kv.kind, key, kv.payload) })
			if err != nil {
				return err
			}
			l["artifact.bytes_written"] += float64(len(kv.payload))
			var back []byte
			l.timeIt("artifact.load_s", func() { back, err = cache.Load(kv.kind, key) })
			if err != nil {
				return err
			}
			l["artifact.bytes_read"] += float64(len(back))
			var again []byte
			if kv.kind == artifact.KindLex {
				var dec *lexer.Config
				l.timeIt("artifact.decode_s", func() { dec, err = artifact.DecodeConfig(back, cfg.Name, tab) })
				if err == nil {
					again, _ = artifact.EncodeConfig(dec)
				}
			} else {
				var dec *artifact.CheckEntry
				l.timeIt("artifact.decode_s", func() { dec, err = artifact.DecodeCheckEntry(back) })
				if err == nil {
					again = artifact.EncodeCheckEntry(dec)
				}
			}
			if err != nil {
				return err
			}
			if !bytes.Equal(again, kv.payload) {
				return fmt.Errorf("artifact %s entry of %s does not round-trip", kv.kind, cfg.Name)
			}
		}
	}
	// The engine's own hit ratio on an incremental recheck.
	warmCache, err := artifact.Open(filepath.Join(e.workDir, fmt.Sprintf("trace-warm-%d", round)))
	if err != nil {
		return err
	}
	defer os.RemoveAll(warmCache.BaseDir())
	return l.hitRatio(e, set, warmCache)
}

// hitRatio fills an artifact cache with a cold incremental check, then
// rechecks the edited corpus and reads the engine's hit and miss
// counters.
func (l layers) hitRatio(e *env, set *contracts.Set, cache *artifact.Cache) error {
	ctx := context.Background()
	rec := telemetry.NewRecorder()
	fill, err := e.engine(func(o *core.Options) { o.Parallelism, o.Artifacts, o.Incremental = 1, cache, true })
	if err != nil {
		return err
	}
	re, err := e.engine(func(o *core.Options) { o.Parallelism, o.Artifacts, o.Incremental, o.Telemetry = 1, cache, true, rec })
	if err != nil {
		return err
	}
	if _, err := fill.CheckContext(ctx, set, e.in.check, e.in.meta); err != nil {
		return err
	}
	if _, err := re.CheckContext(ctx, set, e.in.edited, e.in.meta); err != nil {
		return err
	}
	l["artifact.hits"] += float64(rec.Counter("artifact.cache_hits"))
	l["artifact.misses"] += float64(rec.Counter("artifact.cache_misses"))
	return nil
}

// wire re-drives the shard wire codec: the Job, one Task per shard and
// one Result per shard built from the re-driven check, each encoded,
// decoded and re-encoded to the same bytes.
func (l layers) wire(e *env, tc *traceCheck, setJSON []byte) error {
	lim := format.DefaultLimits()
	job := &shardrpc.Job{ContextEmbedding: true, MaxFileSize: lim.MaxFileSize, MaxLineLen: lim.MaxLineLen,
		MaxDepth: lim.MaxDepth, MaxLines: lim.MaxLines, SetJSON: setJSON}
	for _, m := range e.in.meta {
		job.Meta = append(job.Meta, shardrpc.NamedBlob{Name: m.Name, Text: m.Text})
	}
	// roundTrip times encode and decode apart and requires the decoded
	// value to encode to the same bytes.
	roundTrip := func(what string, encode func() []byte, decode func([]byte) error, again func() []byte) error {
		var b []byte
		l.timeIt("shardrpc.encode_s", func() { b = encode() })
		l["shardrpc.frame_bytes"] += float64(len(b))
		var err error
		l.timeIt("shardrpc.decode_s", func() { err = decode(b) })
		if err != nil {
			return fmt.Errorf("decode shard %s: %w", what, err)
		}
		if !bytes.Equal(again(), b) {
			return fmt.Errorf("shard %s does not round-trip", what)
		}
		return nil
	}
	var j *shardrpc.Job
	if err := roundTrip("job", func() []byte { return shardrpc.EncodeJob(job) },
		func(b []byte) (err error) { j, err = shardrpc.DecodeJob(b); return err },
		func() []byte { return shardrpc.EncodeJob(j) }); err != nil {
		return err
	}
	shards := max(e.sh.shards, workers)
	n := len(tc.p.cfgs)
	for s := 0; s < shards; s++ {
		lo, hi := s*n/shards, (s+1)*n/shards
		task := &shardrpc.Task{Shard: s}
		res := &shardrpc.Result{Shard: s}
		for i := lo; i < hi; i++ {
			src := e.in.check[i]
			task.Sources = append(task.Sources, shardrpc.NamedBlob{Name: src.Name, Text: src.Text})
			cov := tc.coverage[i]
			res.Configs = append(res.Configs, shardrpc.ConfigResult{
				Name: src.Name, Violations: tc.perConfig[i],
				Cov:     &shardrpc.Coverage{SourceLines: cov.SourceLines, Covered: len(cov.Covered), ByCategory: categoryCounts(cov)},
				Contrib: tc.checker.UniqueContributions(tc.p.cfgs[i]),
			})
		}
		var t *shardrpc.Task
		if err := roundTrip("task", func() []byte { return shardrpc.EncodeTask(task) },
			func(b []byte) (err error) { t, err = shardrpc.DecodeTask(b); return err },
			func() []byte { return shardrpc.EncodeTask(t) }); err != nil {
			return err
		}
		var r *shardrpc.Result
		if err := roundTrip("result", func() []byte { return shardrpc.EncodeResult(res) },
			func(b []byte) (err error) { r, err = shardrpc.DecodeResult(b); return err },
			func() []byte { return shardrpc.EncodeResult(r) }); err != nil {
			return err
		}
	}
	return nil
}

// dispatch measures the process backend's cost per shard: a serial
// sharded check on worker processes minus the same check in process,
// over the shard count.
func (l layers) dispatch(e *env, set *contracts.Set) error {
	ctx := context.Background()
	shards := max(e.sh.shards, workers)
	var walls [2]float64
	for i, backend := range []string{core.ShardBackendInProcess, core.ShardBackendProcess} {
		eng, err := e.engine(func(o *core.Options) {
			o.Parallelism, o.Shards, o.ShardWorkers, o.ShardBackend = 1, shards, 1, backend
			o.ShardWorkerCommand = []string{e.exe}
		})
		if err != nil {
			return err
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		if _, err := eng.CheckContext(ctx, set, e.in.check, e.in.meta); err != nil {
			return err
		}
		walls[i] = time.Since(t0).Seconds()
	}
	l["shardrpc.dispatch_overhead_s"] = (walls[1] - walls[0]) / float64(shards)
	return nil
}

// serve measures single-client round trips against the registry
// entry's direct check on the same configs; the difference is the
// HTTP, JSON and admission overhead.
func (l layers) serve(e *env, sv *serveCheck, r *runner) error {
	ctx := context.Background()
	en, err := e.srv.Registry().AcquireByFingerprint(ctx, e.fp)
	if err != nil {
		return err
	}
	var rt, direct []float64
	for rep := 0; rep < 3; rep++ {
		for i, src := range e.in.pool {
			t0 := time.Now()
			body, err := sv.post("/v1/check", sv.bodies[i])
			rt = append(rt, float64(time.Since(t0))/float64(time.Millisecond))
			r.attempted++
			if err != nil {
				return err
			}
			r.fail(sv.compare(request{pool: i}, body))
			t0 = time.Now()
			if _, err := en.CheckContext(ctx, []core.Source{src}, e.in.serveMeta, nil); err != nil {
				return err
			}
			direct = append(direct, float64(time.Since(t0))/float64(time.Millisecond))
		}
	}
	l["server.roundtrip_ms"] = median(rt)
	l["server.engine_ms"] = median(direct)
	l["server.overhead_ms"] = median(rt) - median(direct)
	l["server.compiles"] = float64(e.srv.Registry().Stats().Compiles)
	return nil
}
