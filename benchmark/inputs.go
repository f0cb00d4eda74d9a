package main

import (
	"fmt"
	"math/rand"

	"concord/internal/core"
	"concord/internal/synth"
)

// shape is a workload's input make-up. Every workload runs the same
// operations — learn, check four ways, serve — so every end-to-end
// metric exists on every workload; the shape decides which layer each
// operation stresses.
type shape struct {
	role  string
	scale float64
	// train devices are learned from; the rest of the role are checked.
	// checkAll checks every device of the role instead of the held-out
	// rest (the training sample included).
	train    int
	checkAll bool
	// faultEvery plants one synth.Mutate fault in every n-th checked
	// config.
	faultEvery int
	// edits is the number of checked configs edited between the
	// cache-filling check and the incremental recheck.
	edits int
	// shards routes the cold, cache-filling and re-checks through the
	// in-process sharded driver when above one; the process-backend
	// check always runs at least two shards.
	shards int
	// serveTrain is the number of training configs the serve set is
	// learned from in set-up, and servePool how many checked configs
	// the serve requests draw from. With serveRole set, both come from
	// that role instead (split and faulted the same way), so that one
	// run can make enough requests for a steady 99th percentile.
	serveTrain int
	servePool  int
	serveRole  string
	serveScale float64
	// requests per serve repetition (serveReps run each round); one in
	// coverageEvery requests is a coverage request, the rest are checks.
	requests      int
	coverageEvery int
}

var shapes = map[string]shape{
	"wan-learn": {role: "W4", scale: 0.3, train: 30, faultEvery: 2, edits: 1, shards: 0,
		serveTrain: 10, servePool: 20, serveRole: "W8", serveScale: 1, requests: 500, coverageEvery: 5},
	"fleet-check": {role: "F2", scale: 0.12, train: 400, checkAll: true, faultEvery: 100, edits: 12, shards: 8,
		serveTrain: 100, servePool: 48, requests: 500, coverageEvery: 5},
	"serve-check": {role: "E2", scale: 8, train: 60, faultEvery: 2, edits: 1, shards: 0,
		serveTrain: 60, servePool: 60, requests: 500, coverageEvery: 5},
}

// inputs are one workload's generated corpora.
type inputs struct {
	train  []core.Source
	check  []core.Source
	edited []core.Source // check with the recheck edits applied
	meta   []core.Source
	// serveTrain is what the serve set is learned from; pool are the
	// configs the serve requests carry, with serveMeta.
	serveTrain []core.Source
	pool       []core.Source
	serveMeta  []core.Source
	faults     []fault
}

// fault is one planted synth.Mutate fault: the index of the faulted
// config in check, the mutation kind, the 1-based line it touched and
// the config's text before the fault.
type fault struct {
	config int
	kind   synth.Mutation
	line   int
	clean  []byte
}

func toSources(fs []synth.File) []core.Source {
	out := make([]core.Source, len(fs))
	for i, f := range fs {
		out[i] = core.Source{Name: f.Name, Text: f.Text}
	}
	return out
}

// generate builds a workload's inputs from its shape and the seed. The
// seed decides which devices are learned from, where faults are planted
// and of which kind, which configs are edited, and which configs the
// serve requests carry; the same seed gives the same inputs.
func generate(sh shape, seed int64) (*inputs, error) {
	in, err := generateRole(sh, seed)
	if err != nil || sh.serveRole == "" {
		return in, err
	}
	sv := sh
	sv.role, sv.scale, sv.serveRole = sh.serveRole, sh.serveScale, ""
	sv.train, sv.checkAll, sv.edits = sh.serveTrain, false, 0
	served, err := generateRole(sv, seed)
	if err != nil {
		return nil, err
	}
	in.serveTrain, in.pool, in.serveMeta = served.serveTrain, served.pool, served.meta
	return in, nil
}

// generateRole builds the inputs of one role.
func generateRole(sh shape, seed int64) (*inputs, error) {
	role, ok := synth.RoleByName(sh.role, sh.scale)
	if !ok {
		return nil, fmt.Errorf("unknown role %q", sh.role)
	}
	ds := synth.Generate(role)
	all := toSources(ds.Configs)
	if sh.train >= len(all) {
		return nil, fmt.Errorf("role %s at scale %v has %d devices, need more than %d", sh.role, sh.scale, len(all), sh.train)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(all))
	in := &inputs{meta: toSources(ds.Meta)}
	in.serveMeta = in.meta
	inTrain := make(map[int]bool, sh.train)
	for _, i := range perm[:sh.train] {
		inTrain[i] = true
	}
	// Keep corpus order (device order) inside each part: it is the order
	// shards are cut in.
	for i, src := range all {
		if inTrain[i] {
			in.train = append(in.train, src)
		}
		if sh.checkAll || !inTrain[i] {
			in.check = append(in.check, src)
		}
	}
	// Plant faults in every faultEvery-th checked config, starting at a
	// seeded offset. The kinds take turns from a seeded first one, so
	// every run plants each kind in the same share; a kind that finds no
	// site falls through to the next.
	kinds := synth.Mutations()
	k0 := rng.Intn(len(kinds))
	for n, i := 0, rng.Intn(sh.faultEvery); i < len(in.check); n, i = n+1, i+sh.faultEvery {
		k := k0 + n
		mseed := rng.Int63()
		for try := 0; try < len(kinds); try++ {
			kind := kinds[(k+try)%len(kinds)]
			text, at, ok := synth.Mutate(string(in.check[i].Text), kind, mseed)
			if ok {
				in.faults = append(in.faults, fault{config: i, kind: kind, line: at, clean: in.check[i].Text})
				in.check[i].Text = []byte(text)
				break
			}
		}
	}
	in.edited = append([]core.Source(nil), in.check...)
	for _, i := range rng.Perm(len(in.check))[:min(sh.edits, len(in.check))] {
		text, _, ok := synth.Mutate(string(in.check[i].Text), synth.MutPerturbValue, rng.Int63())
		if !ok {
			return nil, fmt.Errorf("no edit site in %s", in.check[i].Name)
		}
		in.edited[i].Text = []byte(text)
	}
	in.serveTrain = in.train[:min(sh.serveTrain, len(in.train))]
	for _, i := range rng.Perm(len(in.check))[:min(sh.servePool, len(in.check))] {
		in.pool = append(in.pool, in.check[i])
	}
	return in, nil
}
