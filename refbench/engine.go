package main

// The single-caller workloads: engine-topk (the kdash library call) and
// coordinator-topk (the same call through placement.Coordinator and two
// loopback RPC workers).

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kdash/internal/graph"
	"kdash/internal/placement"
	"kdash/internal/rpc"
	"kdash/internal/shard"
	"kdash/internal/topk"
)

// topKer is the query surface of both single-caller workloads.
type topKer interface {
	TopK(q, k int) ([]topk.Result, shard.QueryStats, error)
}

// warmupQueries run untimed before every measured phase: they open lazy
// shards and fill the engine's pools.
const warmupQueries = 200

// topkLoop runs one caller in a closed loop of uniform TopK calls for
// dur. With rec set, each call is a traced request.
func topkLoop(e topKer, pk *picker, k int, dur time.Duration, ans *answers, rec *recorder) phase {
	var ph phase
	start := time.Now()
	deadline := start.Add(dur)
	for time.Now().Before(deadline) {
		q := pk.uniform()
		var id int64
		var unbind func()
		if rec != nil {
			id = rec.newReq()
			rec.current.Store(id)
			unbind = rec.bind(id)
		}
		ph.attempted++
		t0 := time.Now()
		var rs []topk.Result
		var qs shard.QueryStats
		var err error
		if rec != nil {
			rec.time(id, spanClient, "", func() [4]int {
				rs, qs, err = e.TopK(q, k)
				return [4]int{qs.Solves, qs.ShardsSolved, qs.ShardsPruned, qs.NodesEvaluated}
			})
			unbind()
		} else {
			rs, qs, err = e.TopK(q, k)
		}
		d := time.Since(t0)
		if err != nil {
			ph.failed++
			continue
		}
		ph.answered(d, 1)
		ans.addTopK(q, rs)
	}
	ph.wall = time.Since(start)
	return ph
}

func warmTopK(e topKer, seed int64, perm []int, k int) error {
	pk := newPicker(seed, streamWarmup, perm)
	for i := 0; i < warmupQueries; i++ {
		if _, _, err := e.TopK(pk.uniform(), k); err != nil {
			return fmt.Errorf("warmup: %w", err)
		}
	}
	return nil
}

func runEngineTopK(b *bench) (*result, error) {
	res := &result{}
	var g *graph.Graph
	var sx *shard.ShardedIndex
	err := b.repeatSetup(res, func() (func(), error) {
		g = b.graph()
		var err error
		if sx, err = b.cfg.build(g); err != nil {
			return nil, err
		}
		_, _, err = sx.TopK(0, b.cfg.K)
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	perm := hotPermutation(b.cfg)
	if err := warmTopK(sx, b.seed, perm, b.cfg.K); err != nil {
		return nil, err
	}
	ans := newAnswers()
	res.measured = topkLoop(sx, newPicker(b.seed, streamClient, perm), b.cfg.K, b.dur, ans, nil)
	res.rssMB = residentMB()
	gate, err := ans.verify(sx, b.cfg.K, false)
	if err != nil {
		return nil, err
	}
	og, err := ans.oracle(g, sx.Restart(), b.cfg.K, b.seed)
	if err != nil {
		return nil, err
	}
	res.gate = gate.plus(og)
	if !b.trace {
		return res, nil
	}

	// Traced phase: the same stream through the traced engine, whose
	// solves run through the lu seam.
	rec := newRecorder()
	co, closeSeam, err := openSeamed(sx, filepath.Join(b.work, "seam"), rec)
	if err != nil {
		return nil, err
	}
	defer closeSeam()
	te := &tracedIndex{ShardedIndex: co, rec: rec, parent: spanClient}
	if err := warmTopK(te, b.seed, perm, b.cfg.K); err != nil {
		return nil, err
	}
	rec.reset()
	tans := newAnswers()
	res.traced = topkLoop(te, newPicker(b.seed, streamClient, perm), b.cfg.K, b.dur, tans, rec)
	tg, err := tans.verify(sx, b.cfg.K, true)
	if err != nil {
		return nil, err
	}
	res.gate = res.gate.plus(tg)
	res.spans = rec.finish()
	reqs := ordered(groupSpans(res.spans))
	l := chain{spans: []string{spanClient, spanPush, spanSolve}, layers: []string{"caller", "shard.push_self", "lu.solve"}}.ledger(reqs, all)
	res.ledger = &l
	res.layers = engineLayers(res.spans, reqs, spanPush)
	return res, nil
}

// engineLayers derives the shard and lu layer metrics. Query counts
// come from the QueryStats the traced push span carries.
func engineLayers(spans []span, reqs []*reqSpans, pushName string) map[string]float64 {
	m := map[string]float64{}
	var push, pushSelf, lu, solves, solved, pruned, evaluated []float64
	for _, r := range reqs {
		if r.count[pushName] == 0 {
			continue
		}
		p := us(r.dur[pushName])
		push = append(push, p)
		pushSelf = append(pushSelf, p-us(r.dur[spanSolve]))
		lu = append(lu, us(r.dur[spanSolve]))
		n := r.first[pushName].N
		solves = append(solves, float64(n[0]))
		solved = append(solved, float64(n[1]))
		pruned = append(pruned, float64(n[2]))
		evaluated = append(evaluated, float64(n[3]))
	}
	m["shard.push_us_p50"] = median(push)
	m["shard.push_us_p99"] = quantile(push, 0.99)
	m["shard.push_self_us_p50"] = median(pushSelf)
	m["shard.solves_per_query"] = mean(solves)
	m["shard.shards_solved_per_query"] = mean(solved)
	m["shard.shards_pruned_per_query"] = mean(pruned)
	m["shard.nodes_evaluated_per_query"] = mean(evaluated)
	luLayers(m, spans, reqs, sum(lu), sum(push))
	return m
}

// luLayers fills the lu metrics from the seam's solve spans.
func luLayers(m map[string]float64, spans []span, reqs []*reqSpans, luSum, pushSum float64) {
	var rhs, supp []float64
	for _, r := range reqs {
		rhs = append(rhs, r.rhsNnz...)
		supp = append(supp, r.supp...)
	}
	m["lu.solve_us_p50"] = median(individualUs(spans, spanSolve, singleSolve))
	m["lu.solve_share"] = ratio(luSum, pushSum)
	m["lu.support_per_solve"] = mean(supp)
	m["lu.rhs_nnz_per_solve"] = mean(rhs)
}

// loopbackCluster serves two RPC workers on loopback TCP over the index
// saved in dir and binds a coordinator to them.
// With rec set the workers' Handle and the coordinator's connections
// are traced. The returned closer stops every goroutine it started.
func loopbackCluster(dir string, rec *recorder) (*placement.Coordinator, func(), error) {
	const workers = 2
	var wg sync.WaitGroup
	var lns []net.Listener
	var wsxs []*shard.ShardedIndex
	stop := func() {
		for _, ln := range lns {
			ln.Close()
		}
		wg.Wait()
		for _, w := range wsxs {
			w.Close()
		}
	}
	addrs := make([]string, workers)
	for w := 0; w < workers; w++ {
		wsx, err := shard.Open(dir, shard.LoadOptions{Lazy: true})
		if err != nil {
			stop()
			return nil, nil, err
		}
		wsxs = append(wsxs, wsx)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		lns = append(lns, ln)
		addrs[w] = ln.Addr().String()
		var h rpc.Handler = placement.NewWorker(wsx)
		if rec != nil {
			h = tracedWorker{w: h.(*placement.Worker), rec: rec}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = rpc.Serve(ln, h) // returns net.ErrClosed once stop closes the listener
		}()
	}
	cfg := placement.Config{}
	if rec != nil {
		cfg.Dial = tracedDial(rec)
	}
	co, err := placement.NewCoordinator(dir, addrs, cfg)
	if err != nil {
		stop()
		return nil, nil, err
	}
	return co, func() { co.Close(); stop() }, nil
}

func runCoordinatorTopK(b *bench) (*result, error) {
	res := &result{}
	var g *graph.Graph
	var sx *shard.ShardedIndex
	var co *placement.Coordinator
	var closeCluster func()
	dir := filepath.Join(b.work, "index")
	err := b.repeatSetup(res, func() (func(), error) {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		g = b.graph()
		var err error
		if sx, err = b.cfg.build(g); err != nil {
			return nil, err
		}
		if err := sx.Save(dir); err != nil {
			return nil, fmt.Errorf("save index: %w", err)
		}
		if co, closeCluster, err = loopbackCluster(dir, nil); err != nil {
			return nil, err
		}
		if _, _, err = co.TopK(0, b.cfg.K); err != nil {
			closeCluster()
			return nil, err
		}
		return closeCluster, nil
	})
	if err != nil {
		return nil, err
	}
	// The built index stays alive for the gate, so rss_mb counts it
	// beside the coordinator and its workers (see LAYERS.md).
	perm := hotPermutation(b.cfg)
	if err := warmTopK(co, b.seed, perm, b.cfg.K); err != nil {
		closeCluster()
		return nil, err
	}
	ans := newAnswers()
	res.measured = topkLoop(co, newPicker(b.seed, streamClient, perm), b.cfg.K, b.dur, ans, nil)
	res.rssMB = residentMB()
	closeCluster()
	gate, err := ans.verify(sx, b.cfg.K, true)
	if err != nil {
		return nil, err
	}
	og, err := ans.oracle(g, sx.Restart(), b.cfg.K, b.seed)
	if err != nil {
		return nil, err
	}
	res.gate = gate.plus(og)
	if !b.trace {
		return res, nil
	}

	rec := newRecorder()
	tco, closeTraced, err := loopbackCluster(dir, rec)
	if err != nil {
		return nil, err
	}
	if err := warmTopK(tco, b.seed, perm, b.cfg.K); err != nil {
		closeTraced()
		return nil, err
	}
	rec.reset()
	tans := newAnswers()
	res.traced = topkLoop(tco, newPicker(b.seed, streamClient, perm), b.cfg.K, b.dur, tans, rec)
	closeTraced()
	tg, err := tans.verify(sx, b.cfg.K, true)
	if err != nil {
		return nil, err
	}
	res.gate = res.gate.plus(tg)
	res.spans = rec.finish()
	reqs := ordered(groupSpans(res.spans))
	l := chain{spans: []string{spanClient, spanRPC, spanWorker}, layers: []string{"placement.self", "rpc.wire", "rpc.worker"}}.ledger(reqs, all)
	res.ledger = &l
	res.layers = coordinatorLayers(res.spans, reqs)
	return res, nil
}

// coordinatorLayers derives the rpc and placement metrics, and the shard
// counts from the QueryStats the coordinator returns.
func coordinatorLayers(spans []span, reqs []*reqSpans) map[string]float64 {
	m := engineLayers(spans, reqs, spanClient)
	// The coordinator's push is the whole call; no local lu solves.
	for _, k := range []string{"shard.push_us_p50", "shard.push_us_p99", "shard.push_self_us_p50", "lu.solve_share"} {
		m[k] = 0
	}
	var calls, bytes, self []float64
	for _, r := range reqs {
		if r.count[spanClient] == 0 {
			continue
		}
		calls = append(calls, float64(r.count[spanRPC]))
		bytes = append(bytes, float64(r.bytes))
		self = append(self, us(r.dur[spanClient]-r.dur[spanRPC]))
	}
	m["rpc.calls_per_query"] = mean(calls)
	m["rpc.bytes_per_query"] = mean(bytes)
	m["rpc.call_us_p50"] = median(individualUs(spans, spanRPC, anySpan))
	m["rpc.worker_handle_us_p50"] = median(individualUs(spans, spanWorker, anySpan))
	m["placement.coordinator_self_us_p50"] = median(self)
	return m
}
