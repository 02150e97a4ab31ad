package main

// The exactness gate. Served answers are compared bit-for-bit with the
// in-process engine at the same epoch, a sample is compared with power
// iteration, and every mismatch counts as a failed request.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"kdash/internal/core"
	"kdash/internal/graph"
	"kdash/internal/rwr"
	"kdash/internal/shard"
	"kdash/internal/sparse"
	"kdash/internal/topk"
)

// oracleTol is the agreement required with power iteration.
const oracleTol = 1e-9

// oracleSamples is how many answered query nodes are checked against
// power iteration per run.
const oracleSamples = 8

type topkEntry struct {
	rs   []topk.Result
	reqs int // requests that returned rs
}

type batchEntry struct {
	qs []int
	rs [][]topk.Result
}

type proxEntry struct {
	p    float64
	reqs int
}

// answers collects served answers. Repeated answers for one query node
// must equal the first bit-for-bit; the first is then checked against
// the reference.
type answers struct {
	mu      sync.Mutex
	topk    map[int]*topkEntry
	batches []batchEntry
	prox    map[[2]int]*proxEntry
	failed  int
}

func newAnswers() *answers {
	return &answers{topk: map[int]*topkEntry{}, prox: map[[2]int]*proxEntry{}}
}

func (a *answers) addTopK(q int, rs []topk.Result) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if e := a.topk[q]; e != nil {
		if !sameResults(e.rs, rs) {
			a.failed++
			return
		}
		e.reqs++
		return
	}
	a.topk[q] = &topkEntry{rs: rs, reqs: 1}
}

func (a *answers) addBatch(qs []int, rs [][]topk.Result) {
	a.mu.Lock()
	a.batches = append(a.batches, batchEntry{qs: qs, rs: rs})
	a.mu.Unlock()
}

func (a *answers) addProx(q, u int, p float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	key := [2]int{q, u}
	if e := a.prox[key]; e != nil {
		if math.Float64bits(e.p) != math.Float64bits(p) {
			a.failed++
			return
		}
		e.reqs++
		return
	}
	a.prox[key] = &proxEntry{p: p, reqs: 1}
}

func sameResults(a, b []topk.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// wellFormed checks an answer's shape: at most k results, positive
// scores, descending, ties by ascending node id.
func wellFormed(rs []topk.Result, k int) bool {
	if len(rs) == 0 || len(rs) > k {
		return false
	}
	for i, r := range rs {
		if !(r.Score > 0) || r.Score > 1 {
			return false
		}
		if i > 0 {
			p := rs[i-1]
			if p.Score < r.Score || (p.Score == r.Score && p.Node >= r.Node) {
				return false
			}
		}
	}
	return true
}

// gateResult is what the gate found.
type gateResult struct {
	Checked int `json:"checked"` // answers compared with the reference
	Oracle  int `json:"oracle"`  // answers compared with power iteration
	Failed  int `json:"failed"`  // requests whose answer was wrong
}

// verify compares every collected answer with ref. With bitwise false
// (ref is the engine that served them) only the shape is checked.
func (a *answers) verify(ref *shard.ShardedIndex, k int, bitwise bool) (gateResult, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	res := gateResult{Failed: a.failed}
	for _, q := range sortedKeys(a.topk) {
		e := a.topk[q]
		res.Checked++
		if !wellFormed(e.rs, k) {
			res.Failed += e.reqs
			continue
		}
		if !bitwise {
			continue
		}
		want, _, err := ref.TopK(q, k)
		if err != nil {
			return res, err
		}
		if !sameResults(e.rs, want) {
			res.Failed += e.reqs
		}
	}
	for _, b := range a.batches {
		res.Checked++
		qs := make([]core.BatchQuery, len(b.qs))
		for i, q := range b.qs {
			qs[i] = core.BatchQuery{Q: q, K: k}
		}
		want, _, err := ref.SearchBatch(qs)
		if err != nil {
			return res, err
		}
		ok := len(want) == len(b.rs)
		for i := 0; ok && i < len(want); i++ {
			ok = wellFormed(b.rs[i], k) && sameResults(b.rs[i], want[i])
		}
		if !ok {
			res.Failed++
		}
	}
	keys := make([][2]int, 0, len(a.prox))
	for key := range a.prox {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
	})
	for _, key := range keys {
		e := a.prox[key]
		res.Checked++
		want, err := ref.Proximity(key[0], key[1])
		if err != nil {
			return res, err
		}
		if math.Float64bits(want) != math.Float64bits(e.p) {
			res.Failed += e.reqs
		}
	}
	return res, nil
}

// oracle checks a seeded sample of the collected top-k answers against
// power iteration on g.
func (a *answers) oracle(g *graph.Graph, c float64, k int, seed int64) (gateResult, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	keys := sortedKeys(a.topk)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if len(keys) > oracleSamples {
		keys = keys[:oracleSamples]
	}
	var res gateResult
	if len(keys) == 0 {
		return res, nil
	}
	mat := g.ColumnNormalized()
	for _, q := range keys {
		e := a.topk[q]
		res.Oracle++
		ok, err := agreesWithOracle(mat, q, c, k, e.rs)
		if err != nil {
			return res, err
		}
		if !ok {
			res.Failed += e.reqs
		}
	}
	return res, nil
}

// agreesWithOracle reports whether rs is a top-k answer of the exact
// proximity vector within oracleTol: every returned score matches, and
// no node left out scores above the last one returned (ties within the
// tolerance may swap).
func agreesWithOracle(mat *sparse.CSC, q int, c float64, k int, rs []topk.Result) (bool, error) {
	p, _, err := rwr.Iterative(mat, q, c, 1e-14, 0)
	if err != nil {
		return false, fmt.Errorf("power iteration for %d: %w", q, err)
	}
	if len(rs) == 0 || len(rs) > k {
		return false, nil
	}
	in := make(map[int]bool, len(rs))
	for _, r := range rs {
		if r.Node < 0 || r.Node >= len(p) || math.Abs(r.Score-p[r.Node]) > oracleTol {
			return false, nil
		}
		in[r.Node] = true
	}
	floor := rs[len(rs)-1].Score
	if len(rs) < k {
		floor = 0
	}
	for v, pv := range p {
		if !in[v] && pv > floor+oracleTol {
			return false, nil
		}
	}
	return true, nil
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for q := range m {
		keys = append(keys, q)
	}
	sort.Ints(keys)
	return keys
}

func (g gateResult) plus(o gateResult) gateResult {
	return gateResult{Checked: g.Checked + o.Checked, Oracle: g.Oracle + o.Oracle, Failed: g.Failed + o.Failed}
}
