package main

import (
	"math"
	"sort"
	"time"
)

// reqSpans is one request's spans, summed per layer.
type reqSpans struct {
	dur        map[string]time.Duration
	count      map[string]int
	first      map[string]span // first span of each name (carries its counts)
	shards     map[int]bool    // distinct shards solved
	blocks     int             // lu block solves
	blockLanes int             // right-hand sides across the block solves
	rhsNnz     []float64       // rhs nonzeros of single-lane solves
	supp       []float64       // solution support of single-lane solves
	bytes      int             // rpc bytes
}

// groupSpans groups spans by request id; id 0 (calls outside any
// request, such as the coordinator handshake) is dropped.
func groupSpans(spans []span) map[int64]*reqSpans {
	out := map[int64]*reqSpans{}
	for _, s := range spans {
		if s.Req == 0 {
			continue
		}
		r := out[s.Req]
		if r == nil {
			r = &reqSpans{dur: map[string]time.Duration{}, count: map[string]int{}, first: map[string]span{}, shards: map[int]bool{}}
			out[s.Req] = r
		}
		r.dur[s.Name] += s.dur()
		if r.count[s.Name] == 0 {
			r.first[s.Name] = s
		}
		r.count[s.Name]++
		switch s.Name {
		case spanSolve:
			r.shards[s.N[0]] = true
			if s.N[1] < 0 {
				r.blocks++
				r.blockLanes += s.N[3]
			} else {
				r.rhsNnz = append(r.rhsNnz, float64(s.N[1]))
				r.supp = append(r.supp, float64(s.N[2]))
			}
		case spanRPC:
			r.bytes += s.N[0]
		}
	}
	return out
}

// ordered returns the requests in id order, so every statistic is
// computed over the same deterministic sequence.
func ordered(m map[int64]*reqSpans) []*reqSpans {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*reqSpans, len(ids))
	for i, id := range ids {
		out[i] = m[id]
	}
	return out
}

// chain is a workload's layering from the outermost span inwards. Layer
// i's self time in a request is span i's time minus span i+1's; the
// innermost layer keeps its whole time.
type chain struct {
	spans  []string
	layers []string
}

// ledger is the traced run's reconciliation: the median self time of
// each layer, their sum, and the median end-to-end time they should add
// up to.
type ledger struct {
	Layers   []string           `json:"layers"`
	SelfUs   map[string]float64 `json:"selfUsP50"`
	SumUs    float64            `json:"layerSumUsP50"`
	E2EUs    float64            `json:"e2eUsP50"`
	GapPct   float64            `json:"gapPct"`
	Requests int                `json:"requests"`
}

// selfTimes returns each layer's per-request self time (µs) over the
// requests that carry the chain's outermost span and satisfy keep.
func (c chain) selfTimes(reqs []*reqSpans, keep func(*reqSpans) bool) (map[string][]float64, []float64) {
	self := map[string][]float64{}
	var e2e []float64
	for _, r := range reqs {
		if r.count[c.spans[0]] == 0 || !keep(r) {
			continue
		}
		e2e = append(e2e, us(r.dur[c.spans[0]]))
		for i, name := range c.spans {
			d := r.dur[name]
			if i+1 < len(c.spans) {
				d -= r.dur[c.spans[i+1]]
			}
			self[c.layers[i]] = append(self[c.layers[i]], us(d))
		}
	}
	return self, e2e
}

func (c chain) ledger(reqs []*reqSpans, keep func(*reqSpans) bool) ledger {
	self, e2e := c.selfTimes(reqs, keep)
	l := ledger{Layers: c.layers, SelfUs: map[string]float64{}, E2EUs: median(e2e), Requests: len(e2e)}
	for _, name := range c.layers {
		m := median(self[name])
		l.SelfUs[name] = m
		l.SumUs += m
	}
	l.GapPct = 100 * math.Abs(l.SumUs-l.E2EUs) / l.E2EUs
	return l
}

// isRead keeps read requests (everything but /update).
func isRead(r *reqSpans) bool { return r.first[spanHandler].N[0] == 0 }

// isTopK keeps http-read's single /topk requests, the reads its latency
// metrics are taken over.
func isTopK(r *reqSpans) bool {
	return isRead(r) && r.count[spanClient] > 0 && r.first[spanClient].N[0] == 0
}

// individualUs collects the duration of every span of one name (µs)
// that keep accepts.
func individualUs(spans []span, name string, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.Req != 0 && keep(s) {
			out = append(out, us(s.dur()))
		}
	}
	return out
}

func all(*reqSpans) bool { return true }

func anySpan(span) bool { return true }

// singleSolve keeps single-lane lu solves.
func singleSolve(s span) bool { return s.N[1] >= 0 }
