package main

import (
	"strings"
	"testing"

	"concord/internal/contracts"
	"concord/internal/lexer"
	"concord/internal/netdata"
)

// line builds a hand-lexed line with parameters of the given types.
func line(num int, pattern string, types ...string) lexer.Line {
	l := lexer.Line{Num: num, Pattern: pattern, Raw: pattern, Text: pattern}
	for _, t := range types {
		l.Params = append(l.Params, lexer.Param{Type: t})
	}
	return l
}

func config(name string, lines ...lexer.Line) *lexer.Config {
	for i := range lines {
		lines[i].File = name
	}
	return &lexer.Config{Name: name, Lines: lines}
}

const tinySet = `[
 {"category":"present","contract":{"pattern":"/ntp server [ip4]","display":"","stats":{"support":2,"confidence":1}}},
 {"category":"ordering","contract":{"first":"/router bgp [num]","second":"/router bgp [num]/neighbor [ip4]","stats":{"support":2,"confidence":1}}},
 {"category":"type","contract":{"agnostic":"/ntp server [?]","param":0,"bad_type":"pfx4","stats":{"support":2,"confidence":1}}}
]`

// Worked by hand: config a satisfies all three contracts. Config b has
// no ntp line of type ip4 (present, whole file), its bgp line is
// followed by the ntp line (ordering, line 1), and its ntp server is a
// prefix (type, line 2).
func TestEvaluateHandWorked(t *testing.T) {
	a := config("a.cfg",
		line(1, "/router bgp [num]", "num"),
		line(2, "/router bgp [num]/neighbor [ip4]", "ip4"),
		line(3, "/ntp server [ip4]", "ip4"))
	b := config("b.cfg",
		line(1, "/router bgp [num]", "num"),
		line(2, "/ntp server [pfx4]", "pfx4"))
	docs, err := parseContracts([]byte(tinySet))
	if err != nil {
		t.Fatal(err)
	}
	if got := evaluate(docs, a); len(got) != 0 {
		t.Fatalf("a.cfg: unexpected violations %v", got)
	}
	want := []hit{
		{"present", "present|/ntp server [ip4]", "b.cfg", 0},
		{"ordering", "ordering|/router bgp [num]|/router bgp [num]/neighbor [ip4]", "b.cfg", 1},
		{"type", "type|/ntp server [?]|0|pfx4", "b.cfg", 2},
	}
	if err := diffHits(want, evaluate(docs, b)); err != nil {
		t.Fatal(err)
	}
}

// An ordering contract never reaches across the metadata boundary: a
// first-pattern line that ends the config's own lines is a violation
// even when a metadata line of the second pattern follows.
func TestEvaluateOrderingStopsAtMetadata(t *testing.T) {
	meta := line(3, "/router bgp [num]/neighbor [ip4]", "ip4")
	meta.Meta = true
	c := config("c.cfg",
		line(1, "/ntp server [ip4]", "ip4"),
		line(2, "/router bgp [num]", "num"),
		meta)
	docs, err := parseContracts([]byte(tinySet))
	if err != nil {
		t.Fatal(err)
	}
	want := []hit{{"ordering", "ordering|/router bgp [num]|/router bgp [num]/neighbor [ip4]", "c.cfg", 2}}
	if err := diffHits(want, evaluate(docs, c)); err != nil {
		t.Fatal(err)
	}
}

func TestAgnostic(t *testing.T) {
	for in, want := range map[string]string{
		"/a [ip4]:[num] x":  "/a [?]:[?] x",
		"/if [iface2] [v]":  "/if [?] [?]",
		"/odd [ [] [9x] [":  "/odd [ [] [9x] [",
		"no placeholders":   "no placeholders",
		"/x [num][hex]tail": "/x [?][?]tail",
	} {
		if got := agnostic(in); got != want {
			t.Errorf("agnostic(%q) = %q, want %q", in, got, want)
		}
	}
}

// compareViolations reports engine violations the evaluator does not
// expect, and ignores categories it does not evaluate.
func TestCompareViolations(t *testing.T) {
	b := config("b.cfg",
		line(1, "/router bgp [num]", "num"),
		line(2, "/router bgp [num]/neighbor [ip4]", "ip4"),
		line(3, "/ntp server [ip4]", "ip4"))
	unique := contracts.Violation{Category: contracts.CatUnique, ContractID: "unique|x|0", File: "b.cfg", Line: 3}
	if err := compareViolations([]byte(tinySet), []*lexer.Config{b}, []contracts.Violation{unique}); err != nil {
		t.Fatalf("clean config with a unique violation: %v", err)
	}
	extra := contracts.Violation{Category: contracts.CatPresent, ContractID: "present|/ntp server [ip4]", File: "b.cfg"}
	err := compareViolations([]byte(tinySet), []*lexer.Config{b}, []contracts.Violation{extra})
	if err == nil || !strings.Contains(err.Error(), "1 reported violations are unexpected") {
		t.Fatalf("want an unexpected-violation error, got %v", err)
	}
}

// Worked by hand over three training configs with S=2, C=0.6: "/a" is
// in all three configs, "/b" and "/p" in two (confidence 2/3), "/c" in
// one (below support). Of the observed successor pairs only "/a"→"/b"
// meets both: "/a" is followed by "/b" in two of its three configs;
// "/b"→"/p" and "/p"→"/a" hold in one of two, and "/c" is too rare.
func TestCheckEvidenceHandWorked(t *testing.T) {
	train := []*lexer.Config{
		config("1", line(1, "/a"), line(2, "/b"), line(3, "/p")),
		config("2", line(1, "/p"), line(2, "/a"), line(3, "/b")),
		config("3", line(1, "/a"), line(2, "/c")),
	}
	const (
		presentA = `{"category":"present","contract":{"pattern":"/a","stats":{"support":3,"confidence":1}}}`
		presentB = `{"category":"present","contract":{"pattern":"/b","stats":{"support":2,"confidence":0.6666666666666666}}}`
		presentP = `{"category":"present","contract":{"pattern":"/p","stats":{"support":2,"confidence":0.6666666666666666}}}`
		orderAB  = `{"category":"ordering","contract":{"first":"/a","second":"/b","stats":{"support":3,"confidence":0.6666666666666666}}}`
		typeX    = `{"category":"type","contract":{"agnostic":"/x","param":0,"bad_type":"num","stats":{"support":1,"confidence":0.1}}}`
	)
	set := func(cs ...string) []byte { return []byte("[" + strings.Join(cs, ",") + "]") }
	ev, err := checkEvidence(set(presentA, presentB, presentP, orderAB, typeX), train, 2, 0.6)
	if err != nil || ev != (evidence{present: 3, ordering: 1}) {
		t.Fatalf("verified %+v, err %v; want 3 present and 1 ordering, nil", ev, err)
	}
	for name, bad := range map[string][]byte{
		"wrong support":    set(`{"category":"present","contract":{"pattern":"/p","stats":{"support":3,"confidence":0.6666666666666666}}}`, presentA, presentB, orderAB),
		"wrong confidence": set(presentA, presentB, presentP, `{"category":"ordering","contract":{"first":"/a","second":"/b","stats":{"support":3,"confidence":1}}}`),
		"below support":    set(presentA, presentB, presentP, orderAB, `{"category":"present","contract":{"pattern":"/c","stats":{"support":1,"confidence":0.3333333333333333}}}`),
		"second too rare":  set(presentA, presentB, presentP, orderAB, `{"category":"ordering","contract":{"first":"/a","second":"/c","stats":{"support":3,"confidence":0.3333333333333333}}}`),
		"present missing":  set(presentA, presentP, orderAB),
		"ordering missing": set(presentA, presentB, presentP, `{"category":"ordering","contract":{"first":"/p","second":"/a","stats":{"support":2,"confidence":0.5}}}`),
		"no ordering":      set(presentA, presentB, presentP),
	} {
		if _, err := checkEvidence(bad, train, 2, 0.6); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// valued builds a hand-lexed line with one string parameter.
func valued(num int, pattern, value string) lexer.Line {
	l := line(num, pattern, "str")
	l.Params[0].Value = netdata.Str(value)
	return l
}

// Worked by hand with S=2, C=0.6: the interface name equals the
// description in configs 1 and 2 and not in 3, so equals(/if, /desc)
// has support 3 and holds in 2. In config 2 the description "b" starts
// the interface's "bx" as well; in 1 and 3 it does not.
func TestCheckRelationalHandWorked(t *testing.T) {
	train := []*lexer.Config{
		config("1", valued(1, "/if [s]", "a"), valued(2, "/desc [s]", "a")),
		config("2", valued(1, "/if [s]", "b"), valued(2, "/if [s]", "bx"), valued(3, "/desc [s]", "b"), valued(4, "/desc [s]", "bx")),
		config("3", valued(1, "/if [s]", "c"), valued(2, "/desc [s]", "d")),
	}
	idx := linesByPattern(train)
	rel := func(r string, support int, confidence float64) *contractFields {
		c := &contractFields{Pattern1: "/if [s]", Transform1: "id", Rel: r, Pattern2: "/desc [s]", Transform2: "id"}
		c.Stats.Support, c.Stats.Confidence = support, confidence
		return c
	}
	if err := checkRelational(rel("equals", 3, 0.6666666666666666), idx, 2, 0.6); err != nil {
		t.Fatalf("equals as learned: %v", err)
	}
	// The miner bounds its witness search, so it may count fewer
	// holding configs than there are (here with C=0.3).
	if err := checkRelational(rel("equals", 3, 0.3333333333333333), idx, 2, 0.3); err != nil {
		t.Fatalf("equals claiming fewer holding configs: %v", err)
	}
	for name, c := range map[string]*contractFields{
		"more holding configs": rel("equals", 3, 1),
		"more support":         rel("equals", 4, 0.75),
		"less support":         rel("equals", 2, 1),
		"below confidence":     rel("equals", 3, 0.5),
		// startswith needs a strictly longer witness: "b" starts "bx"
		// but "bx" has none, so it holds in no config.
		"startswith": rel("startswith", 3, 0.6666666666666666),
		"unknown transform": func() *contractFields {
			c := rel("equals", 3, 0.6666666666666666)
			c.Transform2 = "rot13"
			return c
		}(),
	} {
		if err := checkRelational(c, idx, 2, 0.6); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// quartiles follows Python's statistics.quantiles(data, n=4) with its
// default exclusive method; the wanted values are what Python returns,
// extrapolation below the smallest value included.
func TestQuartilesExclusiveMethod(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// Minimization may drop a contract that a chain implies and add one a
// chain implies; it may not change a contract of another category, drop
// a contract no chain implies, or add one.
func TestCheckMinimizedHandWorked(t *testing.T) {
	rel := func(p1, p2 string) string {
		return `{"category":"relation","contract":{"pattern1":"` + p1 + `","param1":0,"transform1":"id","rel":"equals","pattern2":"` + p2 + `","param2":0,"transform2":"id","stats":{"support":5,"confidence":1}}}`
	}
	const present = `{"category":"present","contract":{"pattern":"/a","stats":{"support":5,"confidence":1}}}`
	set := func(cs ...string) []byte { return []byte("[" + strings.Join(cs, ",") + "]") }
	// a→b, b→c, a→c: a→c is implied.
	mined := set(present, rel("/a", "/b"), rel("/b", "/c"), rel("/a", "/c"))
	// The mutual group a=b=c becomes the cycle a→b→c→a: c→a was not
	// mined, but c→b→a implies it.
	cycle := set(present, rel("/a", "/b"), rel("/b", "/a"), rel("/b", "/c"), rel("/c", "/b"))
	for name, tc := range map[string]struct {
		mined, set []byte
		ok         bool
	}{
		"implied edge dropped":    {mined, set(present, rel("/a", "/b"), rel("/b", "/c")), true},
		"cycle edge synthesized":  {cycle, set(present, rel("/a", "/b"), rel("/b", "/c"), rel("/c", "/a")), true},
		"unchanged":               {mined, mined, true},
		"needed edge dropped":     {mined, set(present, rel("/a", "/b"), rel("/a", "/c")), false},
		"unimplied edge added":    {mined, set(present, rel("/a", "/b"), rel("/b", "/c"), rel("/c", "/a")), false},
		"present contract lost":   {mined, set(rel("/a", "/b"), rel("/b", "/c")), false},
		"present contract edited": {mined, set(`{"category":"present","contract":{"pattern":"/a","stats":{"support":6,"confidence":1}}}`, rel("/a", "/b"), rel("/b", "/c")), false},
	} {
		if err := checkMinimized(tc.mined, tc.set); (err == nil) != tc.ok {
			t.Errorf("%s: err %v, want ok %v", name, err, tc.ok)
		}
	}
}

func TestIsLeaf(t *testing.T) {
	text := []byte("interface Port-Channel1\n   evpn ether-segment\n      route-target import 00:00:0c:00:00:01\n!\n\nrouter bgp 65000\nset system host-name a")
	for n, want := range map[int]bool{1: false, 2: false, 3: true, 4: true, 5: true, 6: true, 7: true} {
		if got := isLeaf(text, n); got != want {
			t.Errorf("line %d: leaf %v, want %v", n, got, want)
		}
	}
}
