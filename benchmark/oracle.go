package main

// Independent output checks. They read the learned contracts from their
// JSON form and the lexed lines, and recompute by direct scans what the
// engine's compiled checker and statistics miner report, sharing none of
// their code — only the value transformations and relation predicates
// that relational contracts name are the engine's: a disagreement means
// one of the two is wrong.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"concord/internal/contracts"
	"concord/internal/core"
	"concord/internal/lexer"
	"concord/internal/netdata"
	"concord/internal/relations"
)

// contractDoc is one contract of a learned set's JSON array.
type contractDoc struct {
	Category string         `json:"category"`
	Contract contractFields `json:"contract"`
}

// contractFields are the fields of the present, ordering, type and
// relational contract bodies the checks use.
type contractFields struct {
	Pattern    string `json:"pattern"`
	Exact      bool   `json:"exact"`
	First      string `json:"first"`
	Second     string `json:"second"`
	Agnostic   string `json:"agnostic"`
	Param      int    `json:"param"`
	BadType    string `json:"bad_type"`
	Pattern1   string `json:"pattern1"`
	Param1     int    `json:"param1"`
	Transform1 string `json:"transform1"`
	Rel        string `json:"rel"`
	Pattern2   string `json:"pattern2"`
	Param2     int    `json:"param2"`
	Transform2 string `json:"transform2"`
	Stats      struct {
		Support    int     `json:"support"`
		Confidence float64 `json:"confidence"`
	} `json:"stats"`
}

func parseContracts(setJSON []byte) ([]contractDoc, error) {
	var docs []contractDoc
	if err := json.Unmarshal(setJSON, &docs); err != nil {
		return nil, fmt.Errorf("oracle: decode contract set: %w", err)
	}
	return docs, nil
}

// hit is one expected violation: category, contract identity, file and
// line (0 for a whole-file violation).
type hit struct {
	cat, id, file string
	line          int
}

func (h hit) String() string { return fmt.Sprintf("%s %s %s:%d", h.cat, h.id, h.file, h.line) }

// agnostic rewrites every typed placeholder "[name]" of a pattern to
// "[?]", the key type contracts use.
func agnostic(p string) string {
	var b strings.Builder
	for i := 0; i < len(p); i++ {
		if p[i] == '[' {
			j := i + 1
			for j < len(p) && (p[j] >= 'a' && p[j] <= 'z' || p[j] >= 'A' && p[j] <= 'Z' || j > i+1 && p[j] >= '0' && p[j] <= '9') {
				j++
			}
			if j > i+1 && j < len(p) && p[j] == ']' {
				b.WriteString("[?]")
				i = j
				continue
			}
		}
		b.WriteByte(p[i])
	}
	return b.String()
}

// evaluate returns the present, ordering and type violations the
// contracts imply for one lexed configuration.
func evaluate(docs []contractDoc, cfg *lexer.Config) []hit {
	var out []hit
	for _, d := range docs {
		c := &d.Contract
		switch d.Category {
		case "present":
			id := "present|" + c.Pattern
			if c.Exact {
				id = "present-exact|" + c.Pattern
			}
			found := false
			for i := range cfg.Lines {
				l := &cfg.Lines[i]
				if !c.Exact && l.Pattern == c.Pattern || c.Exact && l.Text == c.Pattern {
					found = true
					break
				}
			}
			if !found {
				out = append(out, hit{"present", id, cfg.Name, 0})
			}
		case "ordering":
			id := "ordering|" + c.First + "|" + c.Second
			for i := range cfg.Lines {
				l := &cfg.Lines[i]
				if l.Pattern != c.First {
					continue
				}
				ok := i+1 < len(cfg.Lines) && cfg.Lines[i+1].Meta == l.Meta && cfg.Lines[i+1].Pattern == c.Second
				if !ok {
					out = append(out, hit{"ordering", id, cfg.Name, l.Num})
				}
			}
		case "type":
			id := fmt.Sprintf("type|%s|%d|%s", c.Agnostic, c.Param, c.BadType)
			for i := range cfg.Lines {
				l := &cfg.Lines[i]
				if c.Param < len(l.Params) && l.Params[c.Param].Type == c.BadType && agnostic(l.Pattern) == c.Agnostic {
					out = append(out, hit{"type", id, cfg.Name, l.Num})
				}
			}
		}
	}
	return out
}

// compareViolations checks the engine's present, ordering and type
// violations over cfgs against the evaluator's, as multisets. It returns
// nil on agreement, or an error naming the first differences.
func compareViolations(setJSON []byte, cfgs []*lexer.Config, got []contracts.Violation) error {
	docs, err := parseContracts(setJSON)
	if err != nil {
		return err
	}
	var want []hit
	for _, cfg := range cfgs {
		want = append(want, evaluate(docs, cfg)...)
	}
	var have []hit
	for _, v := range got {
		switch v.Category {
		case contracts.CatPresent, contracts.CatOrdering, contracts.CatType:
			have = append(have, hit{string(v.Category), v.ContractID, v.File, v.Line})
		}
	}
	return diffHits(want, have)
}

func sortHits(hs []hit) {
	sort.Slice(hs, func(i, j int) bool { return hs[i].String() < hs[j].String() })
}

func diffHits(want, have []hit) error {
	sortHits(want)
	sortHits(have)
	var missing, extra []string
	i, j := 0, 0
	for i < len(want) || j < len(have) {
		switch {
		case j == len(have) || i < len(want) && want[i].String() < have[j].String():
			missing = append(missing, want[i].String())
			i++
		case i == len(want) || have[j].String() < want[i].String():
			extra = append(extra, have[j].String())
			j++
		default:
			i++
			j++
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return nil
	}
	return fmt.Errorf("oracle: %d violations the evaluator expects are missing (first %v), %d reported violations are unexpected (first %v)",
		len(missing), first(missing), len(extra), first(extra))
}

func first(s []string) []string {
	if len(s) > 3 {
		return s[:3]
	}
	return s
}

// evidence counts the learned contracts checkEvidence verified, by
// category.
type evidence struct {
	present, ordering, relational int
}

// checkEvidence checks the learned set against the lexed training corpus
// it was learned from, under support S and confidence C:
//
//   - soundness: every present and ordering contract's support and
//     confidence, recomputed by direct scans, equal what it reports and
//     meet S and C;
//   - completeness: every pattern, and every observed successor pair,
//     that meets S and C in the corpus has its present or ordering
//     contract in the set (minimization leaves both categories alone);
//   - every relational contract holds, by a brute-force search for
//     witnesses, on at least as many configs as its reported support and
//     confidence claim.
//
// setJSON is the mined set before minimization: minimization gives the
// contracts it synthesizes their group's weakest evidence, not their
// own (checkMinimized checks it).
//
// Exact-text present contracts (constant learning, off in every
// workload) get the soundness check only. It fails when the set has no
// present or no ordering contract, since the checks would then be
// vacuous.
func checkEvidence(setJSON []byte, train []*lexer.Config, support int, confidence float64) (evidence, error) {
	var ev evidence
	docs, err := parseContracts(setJSON)
	if err != nil {
		return ev, err
	}
	n := len(train)
	// Per-config pattern and valued-text sets, and the observed
	// successor pairs (never across the metadata boundary).
	has := make([]map[string]bool, n)
	hasText := make([]map[string]bool, n)
	pairs := make(map[[2]string]bool)
	for i, cfg := range train {
		has[i] = make(map[string]bool)
		hasText[i] = make(map[string]bool)
		for j := range cfg.Lines {
			l := &cfg.Lines[j]
			has[i][l.Pattern] = true
			if len(l.Params) > 0 {
				hasText[i][l.Text] = true
			}
			if j+1 < len(cfg.Lines) && cfg.Lines[j+1].Meta == l.Meta {
				pairs[[2]string{l.Pattern, cfg.Lines[j+1].Pattern}] = true
			}
		}
	}
	count := func(p string, sets []map[string]bool) int {
		k := 0
		for _, s := range sets {
			if s[p] {
				k++
			}
		}
		return k
	}
	orderingHeld := func(first, second string) int {
		held := 0
		for i, cfg := range train {
			if has[i][first] && orderingHolds(cfg, first, second) {
				held++
			}
		}
		return held
	}
	learned := make(map[string]bool)
	var byPattern []map[string][]*lexer.Line
	for _, d := range docs {
		c := &d.Contract
		var sup, held int
		switch d.Category {
		case "present":
			if c.Exact {
				sup = count(c.Pattern, hasText)
			} else {
				sup = count(c.Pattern, has)
				learned["present|"+c.Pattern] = true
				ev.present++
			}
			held = sup
		case "ordering":
			sup = count(c.First, has)
			if second := count(c.Second, has); second < support {
				return ev, fmt.Errorf("oracle: ordering %q→%q: second pattern in %d configs, below support %d", c.First, c.Second, second, support)
			}
			held = orderingHeld(c.First, c.Second)
			learned["ordering|"+c.First+"|"+c.Second] = true
			ev.ordering++
		case "relation":
			if byPattern == nil {
				byPattern = linesByPattern(train)
			}
			if err := checkRelational(c, byPattern, support, confidence); err != nil {
				return ev, err
			}
			ev.relational++
			continue
		default:
			continue
		}
		denom := sup
		if d.Category == "present" {
			denom = n
		}
		conf := float64(held) / float64(denom)
		if sup != c.Stats.Support || math.Abs(conf-c.Stats.Confidence) > 1e-9 {
			return ev, fmt.Errorf("oracle: %s contract %q reports support %d confidence %v, recomputed %d and %v",
				d.Category, c.Pattern+c.First, c.Stats.Support, c.Stats.Confidence, sup, conf)
		}
		if sup < support || conf < confidence {
			return ev, fmt.Errorf("oracle: %s contract %q has support %d confidence %v, below S=%d C=%v",
				d.Category, c.Pattern+c.First, sup, conf, support, confidence)
		}
	}
	if ev.present == 0 || ev.ordering == 0 {
		return ev, fmt.Errorf("oracle: the set has %d present and %d ordering contracts; nothing to verify", ev.present, ev.ordering)
	}
	var missing []string
	patterns := make(map[string]bool)
	for _, s := range has {
		for p := range s {
			patterns[p] = true
		}
	}
	for p := range patterns {
		sup := count(p, has)
		if sup >= support && float64(sup)/float64(n) >= confidence && !learned["present|"+p] {
			missing = append(missing, "present|"+p)
		}
	}
	for pr := range pairs {
		sup := count(pr[0], has)
		if sup < support || count(pr[1], has) < support {
			continue
		}
		id := "ordering|" + pr[0] + "|" + pr[1]
		if float64(orderingHeld(pr[0], pr[1]))/float64(sup) >= confidence && !learned[id] {
			missing = append(missing, id)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return ev, fmt.Errorf("oracle: %d contracts meet S=%d C=%v in the training corpus but were not learned, first %v",
			len(missing), support, confidence, first(missing))
	}
	return ev, nil
}

// checkRelational checks one mined relational contract against the
// training corpus: its support is the number of configs holding
// pattern1, and it holds — every value of pattern1's parameter,
// transformed, has a related transformed value of pattern2's parameter
// in the same config — in at least support × confidence of them. The
// engine's miner bounds its witness search, so the recomputed count of
// holding configs may exceed the reported one but never fall short.
func checkRelational(c *contractFields, byPattern []map[string][]*lexer.Line, support int, confidence float64) error {
	id := fmt.Sprintf("relation %s[%d]/%s %s %s[%d]/%s", c.Pattern1, c.Param1, c.Transform1, c.Rel, c.Pattern2, c.Param2, c.Transform2)
	t1, ok1 := transformByName[c.Transform1]
	t2, ok2 := transformByName[c.Transform2]
	if !ok1 || !ok2 {
		return fmt.Errorf("oracle: %s: unknown transform", id)
	}
	rel := relations.Rel(c.Rel)
	sup, held := 0, 0
	for _, lines := range byPattern {
		if len(lines[c.Pattern1]) == 0 {
			continue
		}
		sup++
		var lhs, wit []netdata.Value
		witKeys := make(map[string]bool)
		for _, l := range lines[c.Pattern1] {
			if c.Param1 < len(l.Params) {
				if v, ok := t1.Apply(l.Params[c.Param1].Value); ok {
					lhs = append(lhs, v)
				}
			}
		}
		for _, l := range lines[c.Pattern2] {
			if c.Param2 < len(l.Params) {
				if v, ok := t2.Apply(l.Params[c.Param2].Value); ok {
					wit = append(wit, v)
					witKeys[v.Key()] = true
				}
			}
		}
		holds := len(lhs) > 0
		for _, v := range lhs {
			if !holds {
				break
			}
			if rel == relations.Equals {
				holds = witKeys[v.Key()]
				continue
			}
			holds = false
			for _, w := range wit {
				if rel.Holds(v, w) {
					holds = true
					break
				}
			}
		}
		if holds {
			held++
		}
	}
	claimed := int(math.Round(float64(c.Stats.Support) * c.Stats.Confidence))
	switch {
	case c.Stats.Support < support || c.Stats.Confidence < confidence:
		return fmt.Errorf("oracle: %s reports support %d confidence %v, below S=%d C=%v", id, c.Stats.Support, c.Stats.Confidence, support, confidence)
	case sup != c.Stats.Support || held < claimed:
		return fmt.Errorf("oracle: %s reports support %d confidence %v (holds in %d configs), recomputed support %d holding in %d",
			id, c.Stats.Support, c.Stats.Confidence, claimed, sup, held)
	}
	return nil
}

// checkMinimized checks the minimized set against the mined one it was
// reduced from: every contract that is not relational is unchanged, and
// the relational contracts of each relation have the same transitive
// closure — every minimized contract is the mined one or follows from a
// chain of mined contracts, and every mined contract follows from a
// chain of minimized ones. Graph nodes are (pattern, parameter,
// transform) triples.
func checkMinimized(minedJSON, setJSON []byte) error {
	type raw struct {
		Category string          `json:"category"`
		Contract json.RawMessage `json:"contract"`
	}
	// split returns the non-relational contracts' canonical texts and the
	// relational edges, by relation.
	split := func(b []byte) (map[string]bool, map[string]map[[2]string]bool, error) {
		var rs []raw
		if err := json.Unmarshal(b, &rs); err != nil {
			return nil, nil, fmt.Errorf("oracle: decode contract set: %w", err)
		}
		rest := make(map[string]bool)
		edges := make(map[string]map[[2]string]bool)
		for _, r := range rs {
			if r.Category != "relation" {
				rest[r.Category+" "+string(r.Contract)] = true
				continue
			}
			var c contractFields
			if err := json.Unmarshal(r.Contract, &c); err != nil {
				return nil, nil, err
			}
			if edges[c.Rel] == nil {
				edges[c.Rel] = make(map[[2]string]bool)
			}
			edges[c.Rel][[2]string{
				fmt.Sprintf("%s|%d|%s", c.Pattern1, c.Param1, c.Transform1),
				fmt.Sprintf("%s|%d|%s", c.Pattern2, c.Param2, c.Transform2),
			}] = true
		}
		return rest, edges, nil
	}
	minedRest, mined, err := split(minedJSON)
	if err != nil {
		return err
	}
	setRest, set, err := split(setJSON)
	if err != nil {
		return err
	}
	if len(minedRest) != len(setRest) {
		return fmt.Errorf("oracle: minimization changed the non-relational contracts: %d mined, %d kept", len(minedRest), len(setRest))
	}
	for k := range minedRest {
		if !setRest[k] {
			return fmt.Errorf("oracle: minimization changed or dropped %.120s", k)
		}
	}
	rels := make(map[string]bool)
	for rel := range mined {
		rels[rel] = true
	}
	for rel := range set {
		rels[rel] = true
	}
	for rel := range rels {
		if err := impliedBy(rel, set[rel], mined[rel], "minimized", "mined"); err != nil {
			return err
		}
		if err := impliedBy(rel, mined[rel], set[rel], "mined", "minimized"); err != nil {
			return err
		}
	}
	return nil
}

// impliedBy checks that every edge of a is a path in graph b.
func impliedBy(rel string, a, b map[[2]string]bool, aName, bName string) error {
	next := make(map[string][]string)
	for e := range b {
		next[e[0]] = append(next[e[0]], e[1])
	}
	for e := range a {
		if b[e] {
			continue
		}
		seen := map[string]bool{e[0]: true}
		queue := []string{e[0]}
		for len(queue) > 0 && !seen[e[1]] {
			u := queue[0]
			queue = queue[1:]
			for _, v := range next[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		if !seen[e[1]] {
			return fmt.Errorf("oracle: %s contract %s %s %s follows from no chain of %s contracts", aName, e[0], rel, e[1], bName)
		}
	}
	return nil
}

// linesByPattern indexes each config's lines by pattern.
func linesByPattern(cfgs []*lexer.Config) []map[string][]*lexer.Line {
	out := make([]map[string][]*lexer.Line, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = make(map[string][]*lexer.Line)
		for j := range cfg.Lines {
			l := &cfg.Lines[j]
			out[i][l.Pattern] = append(out[i][l.Pattern], l)
		}
	}
	return out
}

// transformByName indexes the engine's data transformations. They are
// the value primitives contracts name, not part of the miner.
var transformByName = func() map[string]relations.Transform {
	m := make(map[string]relations.Transform)
	for _, t := range core.Transforms() {
		m[t.Name] = t
	}
	return m
}()

// orderingHolds reports whether every line of pattern first in cfg is
// immediately followed, within its own segment, by a line of pattern
// second.
func orderingHolds(cfg *lexer.Config, first, second string) bool {
	for i := range cfg.Lines {
		l := &cfg.Lines[i]
		if l.Pattern != first {
			continue
		}
		if i+1 >= len(cfg.Lines) || cfg.Lines[i+1].Meta != l.Meta || cfg.Lines[i+1].Pattern != second {
			return false
		}
	}
	return true
}
