package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"kdash/internal/gen"
	"kdash/internal/graph"
	"kdash/internal/reorder"
	"kdash/internal/shard"
)

// refConfig is the reference configuration every workload runs on: the
// CommunityOverlay graph and sharded index of the experiments package's
// distributed and serve experiments. The workload seed never reaches it.
type refConfig struct {
	Nodes       int     `json:"nodes"`
	Degree      int     `json:"degree"`
	Communities int     `json:"communities"`
	PSame       float64 `json:"pSame"`
	GraphSeed   int64   `json:"graphSeed"`
	Shards      int     `json:"shards"`
	Reorder     string  `json:"reorder"`
	K           int     `json:"k"`
	Restart     float64 `json:"restart"`
	QueryTol    float64 `json:"queryTol"`
}

// referenceShards is the reference configuration's shard count.
const referenceShards = 8

// referenceConfig resolves the reference configuration at a node count
// (50000 for measurements; the smoke test uses a small graph).
func referenceConfig(nodes int) refConfig {
	communities := nodes / 100
	if communities < 4 {
		communities = 4
	}
	return refConfig{
		Nodes:       nodes,
		Degree:      3,
		Communities: communities,
		PSame:       0.995,
		GraphSeed:   1,
		Shards:      referenceShards,
		Reorder:     "hybrid",
		K:           10,
		Restart:     0.95,
		QueryTol:    shard.DefaultQueryTol,
	}
}

func (c refConfig) graph() *graph.Graph {
	return gen.CommunityOverlay(c.Nodes, c.Degree, c.Communities, c.PSame, c.GraphSeed)
}

func (c refConfig) build(g *graph.Graph) (*shard.ShardedIndex, error) {
	sx, err := shard.Build(g, shard.Options{Shards: c.Shards, Reorder: reorder.Hybrid, Seed: c.GraphSeed})
	if err != nil {
		return nil, fmt.Errorf("build index: %w", err)
	}
	if sx.Restart() != c.Restart {
		return nil, fmt.Errorf("index restart %v, reference config says %v", sx.Restart(), c.Restart)
	}
	return sx, nil
}

// Stream ids: each client and the updater draw from their own generator,
// so adding a stream never shifts another one.
const (
	streamWarmup  = 1
	streamClient  = 10 // + client index
	streamUpdates = 100
)

// streamRNG derives one stream's generator from the workload seed.
func streamRNG(seed int64, stream int64) *rand.Rand {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return rand.New(rand.NewSource(int64(x >> 1)))
}

// picker draws query nodes. Zipf ranks map to nodes through a
// permutation fixed by the graph seed, so the hot set is the same for
// every workload seed and only the draw sequence changes with it.
type picker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int
}

// hotPermutation is the zipf rank -> node map shared by all pickers.
func hotPermutation(c refConfig) []int {
	return rand.New(rand.NewSource(c.GraphSeed)).Perm(c.Nodes)
}

func newPicker(seed, stream int64, perm []int) *picker {
	rng := streamRNG(seed, stream)
	return &picker{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(perm)-1)), perm: perm}
}

func (p *picker) uniform() int { return p.rng.Intn(len(p.perm)) }
func (p *picker) hot() int     { return p.perm[p.zipf.Uint64()] }

// Update kinds, sent in rotation.
const (
	updIntra = iota // edge between two nodes of one shard
	updCut          // edge between shards
	updNode         // new node linked both ways to an existing one
	updKinds
)

var updKindNames = [updKinds]string{"intra", "cut", "node"}

// edgeOp is one added edge on the /update wire (weight 1 omitted).
type edgeOp struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// updateReq is one /update body.
type updateReq struct {
	AddNodes int      `json:"addNodes,omitempty"`
	AddEdges []edgeOp `json:"addEdges"`
}

// update is one generated write: its wire body, the same change as an
// in-process delta, and the node read back after the ack.
type update struct {
	Req   updateReq
	Delta *graph.Delta
	Probe int
}

// updateGen generates valid writes against the base graph: added edges
// never duplicate an existing or earlier added edge. The kinds rotate
// intra, cut, node; the written-to shard rotates 0, 1, ... independently.
type updateGen struct {
	rng     *rand.Rand
	g       *graph.Graph
	home    []int
	members [][]int
	n       int
	added   map[[2]int]bool
	i       int
}

func newUpdateGen(seed int64, g *graph.Graph, home []int, shards int) *updateGen {
	members := make([][]int, shards)
	for u, s := range home {
		members[s] = append(members[s], u)
	}
	return &updateGen{rng: streamRNG(seed, streamUpdates), g: g, home: home, members: members, n: g.N(), added: map[[2]int]bool{}}
}

func (ug *updateGen) fresh(u, v int) bool {
	return u != v && !ug.g.HasEdge(u, v) && !ug.added[[2]int{u, v}]
}

func (ug *updateGen) next() (update, error) {
	kind := ug.i % updKinds
	ug.i++
	base := len(ug.home)
	d := graph.NewDelta(ug.n)
	up := update{Delta: d}
	for attempt := 0; ; attempt++ {
		if attempt > 1000 {
			return up, fmt.Errorf("no fresh %s edge found", updKindNames[kind])
		}
		// Writes rotate over the shards, so every run spreads its
		// refactorizations evenly whatever the seed.
		home := ug.members[(ug.i-1)%len(ug.members)]
		u := home[ug.rng.Intn(len(home))]
		switch kind {
		case updIntra, updCut:
			var v int
			if kind == updIntra {
				v = home[ug.rng.Intn(len(home))]
			} else {
				v = ug.rng.Intn(base)
				if ug.home[v] == ug.home[u] {
					continue
				}
			}
			if !ug.fresh(u, v) {
				continue
			}
			ug.added[[2]int{u, v}] = true
			up.Req.AddEdges = []edgeOp{{u, v}}
			up.Probe = u
			if err := d.AddEdge(u, v, 1); err != nil {
				return up, err
			}
			return up, nil
		default:
			nu := d.AddNode()
			up.Req.AddNodes = 1
			up.Req.AddEdges = []edgeOp{{nu, u}, {u, nu}}
			up.Probe = nu
			if err := d.AddEdge(nu, u, 1); err != nil {
				return up, err
			}
			if err := d.AddEdge(u, nu, 1); err != nil {
				return up, err
			}
			ug.n++
			return up, nil
		}
	}
}

// graphHash fingerprints a graph's edge list, so a result shows which
// graph it ran on.
func graphHash(g *graph.Graph) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(g.N()))
	for u := 0; u < g.N(); u++ {
		g.OutNeighbors(u, func(to int, w float64) {
			put(uint64(u))
			put(uint64(to))
			put(math.Float64bits(w))
		})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
