package main

// The HTTP workloads: http-read (1 keep-alive client, read mix, no
// updates) and http-mixed-wal (durable mode: 1 query client and 1
// updater on a fixed 2 s schedule with a read-your-writes probe).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"kdash/internal/graph"
	"kdash/internal/server"
	"kdash/internal/shard"
	"kdash/internal/topk"
	"kdash/internal/wal"
)

// batchSize is the query count of a /topk/batch request.
const batchSize = 8

// updateEvery is the updater's fixed schedule on http-mixed-wal. Each
// update stalls the query client at the read barrier for one apply
// (~370 ms on the reference host, much longer when the host is busy), so
// throughput falls with the apply time. At one update a second applies
// took a third or more of the run and throughput swung by 19–34% of its
// median over ten seeds; every 2 s they take about a fifth.
const updateEvery = 2 * time.Second

// httpServer serves a handler on a loopback listener.
type httpServer struct {
	srv  *http.Server
	base string
	done chan error
}

func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for Serve to return.
func (s *httpServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}

// client is one load generator connection pool.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// do sends one request and decodes a 2xx body into out. A non-2xx
// status or a transport or decode failure is an error.
func (c *client) do(method, path string, body []byte, req int64, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hr, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if req != 0 {
		hr.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

type wireTopK struct {
	Results []topk.Result `json:"results"`
}

type wireBatch struct {
	Items []wireTopK `json:"items"`
}

type wireProx struct {
	Proximity float64 `json:"proximity"`
}

type batchQuery struct {
	Q int `json:"q"`
	K int `json:"k"`
}

func (c *client) topK(q, k int, req int64) ([]topk.Result, error) {
	var out wireTopK
	err := c.do(http.MethodGet, fmt.Sprintf("/topk?q=%d&k=%d", q, k), nil, req, &out)
	return out.Results, err
}

// readReq is one generated read request of the http-read mix.
type readReq struct {
	kind int // 0 /topk, 1 /topk/batch, 2 /proximity
	qs   []int
	u    int
}

func nextRead(pk *picker) readReq {
	r := pk.rng.Float64()
	switch {
	case r < 0.85:
		return readReq{kind: 0, qs: []int{pk.hot()}}
	case r < 0.95:
		qs := make([]int, batchSize)
		for i := range qs {
			qs[i] = pk.hot()
		}
		return readReq{kind: 1, qs: qs}
	default:
		return readReq{kind: 2, qs: []int{pk.hot()}, u: pk.uniform()}
	}
}

// send runs one read request and records its answer.
func (c *client) send(rr readReq, k int, id int64, ans *answers) error {
	switch rr.kind {
	case 0:
		rs, err := c.topK(rr.qs[0], k, id)
		if err != nil {
			return err
		}
		ans.addTopK(rr.qs[0], rs)
	case 1:
		body := struct {
			Queries []batchQuery `json:"queries"`
		}{}
		for _, q := range rr.qs {
			body.Queries = append(body.Queries, batchQuery{Q: q, K: k})
		}
		data, _ := json.Marshal(body) // plain structs: cannot fail
		var out wireBatch
		if err := c.do(http.MethodPost, "/topk/batch", data, id, &out); err != nil {
			return err
		}
		if len(out.Items) != len(rr.qs) {
			return fmt.Errorf("batch of %d answered with %d items", len(rr.qs), len(out.Items))
		}
		rs := make([][]topk.Result, len(out.Items))
		for i, it := range out.Items {
			rs[i] = it.Results
		}
		ans.addBatch(rr.qs, rs)
	default:
		var out wireProx
		if err := c.do(http.MethodGet, fmt.Sprintf("/proximity?q=%d&u=%d", rr.qs[0], rr.u), nil, id, &out); err != nil {
			return err
		}
		ans.addProx(rr.qs[0], rr.u, out.Proximity)
	}
	return nil
}

// readLoad runs the http-read mix from one closed-loop client for dur.
// Latencies are recorded for the single /topk reads only: a batch of 8
// takes several times as long, and with batches 10% of the requests a
// tail quantile over all reads would sit on the edge between the two.
// One client leaves the second vCPU of the 2-vCPU reference host to the
// server and the runtime: with two, both vCPUs run client and server
// work at once, and the median read swung half again as much from
// second to second (sd of log p50 over 3 s slices 0.095 with two
// clients, 0.063 with one).
func readLoad(base string, seed int64, perm []int, k int, dur time.Duration, ans *answers, rec *recorder) phase {
	c := newClient(base, 1)
	defer c.close()
	pk := newPicker(seed, streamClient, perm)
	var ph phase
	start := time.Now()
	deadline := start.Add(dur)
	for time.Now().Before(deadline) {
		rr := nextRead(pk)
		var id int64
		if rec != nil {
			id = rec.newReq()
		}
		ph.attempted++
		var err error
		t0 := time.Now()
		if rec != nil {
			rec.time(id, spanClient, "", func() [4]int {
				err = c.send(rr, k, id, ans)
				return [4]int{rr.kind}
			})
		} else {
			err = c.send(rr, k, id, ans)
		}
		d := time.Since(t0)
		if err != nil {
			ph.failed++
			continue
		}
		if rr.kind == 0 {
			ph.answered(d, 1)
		} else {
			ph.queries += len(rr.qs)
		}
	}
	ph.wall = time.Since(start)
	return ph
}

func warmHTTP(base string, seed int64, perm []int, k int) error {
	c := newClient(base, 1)
	defer c.close()
	pk := newPicker(seed, streamWarmup, perm)
	for i := 0; i < warmupQueries; i++ {
		if err := c.send(nextRead(pk), k, 0, newAnswers()); err != nil {
			return fmt.Errorf("warmup: %w", err)
		}
	}
	return nil
}

func runHTTPRead(b *bench) (*result, error) {
	res := &result{}
	var g *graph.Graph
	var sx *shard.ShardedIndex
	var srv *httpServer
	err := b.repeatSetup(res, func() (func(), error) {
		g = b.graph()
		var err error
		if sx, err = b.cfg.build(g); err != nil {
			return nil, err
		}
		if srv, err = startHTTP(server.New(sx)); err != nil {
			return nil, err
		}
		c := newClient(srv.base, 1)
		defer c.close()
		if _, err := c.topK(0, b.cfg.K, 0); err != nil {
			srv.stop()
			return nil, err
		}
		return srv.stop, nil
	})
	if err != nil {
		return nil, err
	}
	perm := hotPermutation(b.cfg)
	if err := warmHTTP(srv.base, b.seed, perm, b.cfg.K); err != nil {
		srv.stop()
		return nil, err
	}
	ans := newAnswers()
	res.measured = readLoad(srv.base, b.seed, perm, b.cfg.K, b.dur, ans, nil)
	res.rssMB = residentMB()
	srv.stop()
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
	co, closeSeam, err := openSeamed(sx, filepath.Join(b.work, "seam"), rec)
	if err != nil {
		return nil, err
	}
	defer closeSeam()
	tsrv, err := startHTTP(tracedHandler{h: server.New(&tracedIndex{ShardedIndex: co, rec: rec, parent: spanHandler}), rec: rec})
	if err != nil {
		return nil, err
	}
	if err := warmHTTP(tsrv.base, b.seed, perm, b.cfg.K); err != nil {
		tsrv.stop()
		return nil, err
	}
	rec.reset()
	tans := newAnswers()
	res.traced = readLoad(tsrv.base, b.seed, perm, b.cfg.K, b.dur, tans, rec)
	tsrv.stop()
	tg, err := tans.verify(sx, b.cfg.K, true)
	if err != nil {
		return nil, err
	}
	res.gate = res.gate.plus(tg)
	res.spans = rec.finish()
	reqs := ordered(groupSpans(res.spans))
	l := httpChain(true).ledger(reqs, isTopK)
	res.ledger = &l
	res.layers = httpLayers(res.spans, reqs, 0)
	return res, nil
}

// httpChain is the layering of an HTTP read; withLU splits the push into
// its own bookkeeping and the seam's factor solves.
func httpChain(withLU bool) chain {
	c := chain{spans: []string{spanClient, spanHandler, spanPush}, layers: []string{"server.wire", "server.handler_self", "shard.push"}}
	if withLU {
		c.spans = append(c.spans, spanSolve)
		c.layers = []string{"server.wire", "server.handler_self", "shard.push_self", "lu.solve"}
	}
	return c
}

// httpLayers derives the server, shard and lu metrics of an HTTP run
// that acked the given number of updates. Query counts come from the
// seam: solves and distinct shards per /topk request, nodes evaluated
// from the engine's SearchStats.
func httpLayers(spans []span, reqs []*reqSpans, updates int) map[string]float64 {
	m := map[string]float64{}
	var wire, hself, clientSelf, push, pushSelf, ack []float64
	var solves, solved, evaluated []float64
	var luSum, pushSum, blockLanes, blocks float64
	for _, r := range reqs {
		if r.count[spanHandler] == 0 {
			continue
		}
		if !isRead(r) {
			ack = append(ack, us(r.dur[spanHandler]))
			continue
		}
		hs := us(r.dur[spanHandler] - r.dur[spanPush])
		hself = append(hself, hs)
		if r.count[spanClient] > 0 {
			wire = append(wire, us(r.dur[spanClient]-r.dur[spanHandler]))
			clientSelf = append(clientSelf, hs)
		}
		if r.count[spanPush] == 0 {
			continue
		}
		p := us(r.dur[spanPush])
		push = append(push, p)
		pushSelf = append(pushSelf, p-us(r.dur[spanSolve]))
		luSum += us(r.dur[spanSolve])
		pushSum += p
		blockLanes += float64(r.blockLanes)
		blocks += float64(r.blocks)
		if isTopK(r) {
			solves = append(solves, float64(r.count[spanSolve]))
			solved = append(solved, float64(len(r.shards)))
			evaluated = append(evaluated, float64(r.first[spanPush].N[3]))
		}
	}
	m["server.wire_us_p50"] = median(wire)
	m["server.handler_self_us_p50"] = median(hself)
	m["server.read_barrier_ms_per_update"] = barrierPerUpdate(clientSelf, updates)
	m["server.update_ack_us_p50"] = median(ack)
	m["shard.push_us_p50"] = median(push)
	m["shard.push_us_p99"] = quantile(push, 0.99)
	m["shard.push_self_us_p50"] = median(pushSelf)
	m["shard.solves_per_query"] = mean(solves)
	m["shard.shards_solved_per_query"] = mean(solved)
	m["shard.nodes_evaluated_per_query"] = mean(evaluated)
	m["shard.batch_rhs_per_block_solve"] = ratio(blockLanes, blocks)
	luLayers(m, spans, reqs, luSum, pushSum)
	return m
}

// barrierPerUpdate is the query client's wait at the read barrier per
// acked update (ms): its reads' handler self time above their median,
// summed and divided by the updates. Only the one read that arrives
// during each apply stalls, so a quantile would not see it.
func barrierPerUpdate(handlerSelfUs []float64, updates int) float64 {
	if updates == 0 {
		return 0
	}
	med := median(handlerSelfUs)
	var excess float64
	for _, h := range handlerSelfUs {
		excess += math.Max(0, h-med)
	}
	return excess / 1e3 / float64(updates)
}

// walCounters is the /statz wal block the benchmark reads.
type walCounters struct {
	Acked       float64 `json:"acked"`
	Compactions float64 `json:"compactions"`
	Fsyncs      float64 `json:"fsyncs"`
	Bytes       float64 `json:"bytes"`
}

func (c *client) walStatz() (walCounters, error) {
	var doc struct {
		WAL walCounters `json:"wal"`
	}
	err := c.do(http.MethodGet, "/statz", nil, 0, &doc)
	return doc.WAL, err
}

// mixedRun is one http-mixed-wal phase.
type mixedRun struct {
	ph      phase
	acked   []update
	sent    []time.Time     // per acked update: /update sent
	ackedAt []time.Time     // per acked update: 202 received
	ack     []time.Duration // send -> 202
	visible []time.Duration // send -> read-your-writes answer
	late    []time.Duration // send time - due time
	wal0    walCounters
	wal1    walCounters
	reads   []timedRead // the query client's reads and the read-your-writes probes
}

type timedRead struct {
	q      int
	rs     []topk.Result
	t0, t1 time.Time
}

// mixedLoad runs one query client and the scheduled updater for dur.
func mixedLoad(base string, seed int64, perm []int, g *graph.Graph, sx *shard.ShardedIndex, k int, dur time.Duration, rec *recorder) (*mixedRun, error) {
	mr := &mixedRun{}
	c := newClient(base, 2)
	defer c.close()
	var err error
	if mr.wal0, err = c.walStatz(); err != nil {
		return nil, err
	}
	pk := newPicker(seed, streamClient, perm)
	ug := newUpdateGen(seed, g, sx.Assignment(), sx.Shards())
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	var updPh phase
	var updErr error
	var probes []timedRead
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			due := start.Add(time.Duration(i) * updateEvery)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			up, err := ug.next()
			if err != nil {
				updErr = err
				return
			}
			body, _ := json.Marshal(up.Req) // plain structs: cannot fail
			var id int64
			if rec != nil {
				id = rec.newReq()
			}
			sent := time.Now()
			mr.late = append(mr.late, sent.Sub(due))
			updPh.attempted++
			if err := c.do(http.MethodPost, "/update", body, id, nil); err != nil {
				updPh.failed++
				continue
			}
			ackedAt := time.Now()
			mr.ack = append(mr.ack, ackedAt.Sub(sent))
			mr.acked = append(mr.acked, up)
			mr.sent = append(mr.sent, sent)
			mr.ackedAt = append(mr.ackedAt, ackedAt)
			if rec != nil {
				id = rec.newReq()
			}
			updPh.attempted++
			rs, err := c.topK(up.Probe, k, id)
			t1 := time.Now()
			if err != nil {
				updPh.failed++
				continue
			}
			mr.visible = append(mr.visible, t1.Sub(sent))
			probes = append(probes, timedRead{q: up.Probe, rs: rs, t0: ackedAt, t1: t1})
		}
	}()
	for time.Now().Before(deadline) {
		q := pk.uniform()
		var id int64
		if rec != nil {
			id = rec.newReq()
		}
		mr.ph.attempted++
		var rs []topk.Result
		var err error
		t0 := time.Now()
		if rec != nil {
			rec.time(id, spanClient, "", func() [4]int {
				rs, err = c.topK(q, k, id)
				return [4]int{}
			})
		} else {
			rs, err = c.topK(q, k, id)
		}
		t1 := time.Now()
		if err != nil {
			mr.ph.failed++
			continue
		}
		mr.ph.answered(t1.Sub(t0), 1)
		mr.reads = append(mr.reads, timedRead{q: q, rs: rs, t0: t0, t1: t1})
	}
	wg.Wait()
	mr.ph.wall = time.Since(start)
	mr.ph.attempted += updPh.attempted
	mr.ph.failed += updPh.failed
	mr.reads = append(mr.reads, probes...)
	if updErr != nil {
		return nil, updErr
	}
	if mr.wal1, err = c.walStatz(); err != nil {
		return nil, err
	}
	return mr, nil
}

// epochRange is the range of epochs a read may have seen, where epoch e
// is the base index with the first e acked updates applied. The read
// barrier makes every update acked before the read was sent visible to
// it; no update sent after its answer came back can be.
func (mr *mixedRun) epochRange(r timedRead) (lo, hi int) {
	for i := range mr.acked {
		if !mr.ackedAt[i].After(r.t0) {
			lo = i + 1
		}
		if mr.sent[i].Before(r.t1) {
			hi = i + 1
		}
	}
	return lo, hi
}

// checkEpochs compares every read with the in-process index at each
// epoch it may have seen; it must equal one of them bit-for-bit. Epoch
// e+1 is epoch e with the e-th acked delta applied, the order in which
// the compactor publishes them.
func checkEpochs(sx *shard.ShardedIndex, k int, mr *mixedRun) (gateResult, error) {
	res := gateResult{Checked: len(mr.reads)}
	lo, hi := make([]int, len(mr.reads)), make([]int, len(mr.reads))
	done := make([]bool, len(mr.reads)) // matched, or already counted as failed
	for i, r := range mr.reads {
		lo[i], hi[i] = mr.epochRange(r)
		if !wellFormed(r.rs, k) {
			res.Failed++
			done[i] = true
		}
	}
	ref := sx
	for e := 0; e <= len(mr.acked); e++ {
		if e > 0 {
			next, _, err := ref.Apply(mr.acked[e-1].Delta)
			if err != nil {
				return res, fmt.Errorf("apply acked delta %d: %w", e, err)
			}
			ref = next
		}
		want := map[int][]topk.Result{}
		for i, r := range mr.reads {
			if done[i] || e < lo[i] || e > hi[i] {
				continue
			}
			w, ok := want[r.q]
			if !ok {
				var err error
				if w, _, err = ref.TopK(r.q, k); err != nil {
					return res, err
				}
				want[r.q] = w
			}
			done[i] = sameResults(r.rs, w)
		}
	}
	for _, d := range done {
		if !d {
			res.Failed++
		}
	}
	return res, nil
}

// finalCheckNodes is how many served answers are compared with the
// merged-delta index after the run (the probed nodes come on top).
const finalCheckNodes = 64

// checkMixed is the gate of one http-mixed-wal phase: reads are checked
// against the epochs they may have seen, and the final served state
// against one in-process Apply of all acked deltas merged together.
func checkMixed(base string, seed int64, sx *shard.ShardedIndex, k int, mr *mixedRun) (gateResult, error) {
	res, err := checkEpochs(sx, k, mr)
	if err != nil {
		return res, err
	}
	final := sx
	if len(mr.acked) > 0 {
		merged := graph.NewDelta(sx.N())
		for _, up := range mr.acked {
			if err := merged.Extend(up.Delta); err != nil {
				return res, fmt.Errorf("merge acked deltas: %w", err)
			}
		}
		if final, _, err = sx.Apply(merged); err != nil {
			return res, fmt.Errorf("apply merged deltas: %w", err)
		}
	}
	// The final served state, read back after the run.
	c := newClient(base, 1)
	defer c.close()
	served := newAnswers()
	rng := streamRNG(seed, streamUpdates+1)
	nodes := make([]int, 0, finalCheckNodes+len(mr.acked))
	for i := 0; i < finalCheckNodes; i++ {
		nodes = append(nodes, rng.Intn(final.N()))
	}
	for _, up := range mr.acked {
		nodes = append(nodes, up.Probe)
	}
	for _, q := range nodes {
		res.Checked++
		rs, err := c.topK(q, k, 0)
		if err != nil {
			res.Failed++
			continue
		}
		served.addTopK(q, rs)
	}
	g, err := served.verify(final, k, true)
	if err != nil {
		return res, err
	}
	res = res.plus(g)
	og, err := served.oracle(final.Graph(), final.Restart(), k, seed)
	if err != nil {
		return res, err
	}
	return res.plus(og), nil
}

// durableServer starts a WAL-mode server over engine with a fresh log
// directory.
func durableServer(engine server.Engine, dir string, rec *recorder) (*httpServer, func(), error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	h, err := server.NewDurable(engine, server.WALConfig{Dir: dir, Sync: wal.SyncInterval})
	if err != nil {
		return nil, nil, err
	}
	var hh http.Handler = h
	if rec != nil {
		hh = tracedHandler{h: h, rec: rec}
	}
	srv, err := startHTTP(hh)
	if err != nil {
		h.Close()
		return nil, nil, err
	}
	return srv, func() { srv.stop(); h.Close() }, nil
}

func runHTTPMixedWAL(b *bench) (*result, error) {
	res := &result{}
	var g *graph.Graph
	var sx *shard.ShardedIndex
	var srv *httpServer
	var stop func()
	walDir := filepath.Join(b.work, "wal")
	err := b.repeatSetup(res, func() (func(), error) {
		g = b.graph()
		var err error
		if sx, err = b.cfg.build(g); err != nil {
			return nil, err
		}
		if srv, stop, err = durableServer(sx, walDir, nil); err != nil {
			return nil, err
		}
		c := newClient(srv.base, 1)
		defer c.close()
		if _, err := c.topK(0, b.cfg.K, 0); err != nil {
			stop()
			return nil, err
		}
		return stop, nil
	})
	if err != nil {
		return nil, err
	}
	perm := hotPermutation(b.cfg)
	if err := warmHTTP(srv.base, b.seed, perm, b.cfg.K); err != nil {
		stop()
		return nil, err
	}
	mr, err := mixedLoad(srv.base, b.seed, perm, g, sx, b.cfg.K, b.dur, nil)
	if err != nil {
		stop()
		return nil, err
	}
	res.measured = mr.ph
	res.rssMB = residentMB()
	res.info = mixedInfo(mr)
	gate, err := checkMixed(srv.base, b.seed, sx, b.cfg.K, mr)
	stop()
	if err != nil {
		return nil, err
	}
	res.gate = gate
	if !b.trace {
		return res, nil
	}

	rec := newRecorder()
	tsrv, tstop, err := durableServer(&tracedIndex{ShardedIndex: sx, rec: rec, parent: spanHandler}, walDir, rec)
	if err != nil {
		return nil, err
	}
	if err := warmHTTP(tsrv.base, b.seed, perm, b.cfg.K); err != nil {
		tstop()
		return nil, err
	}
	rec.reset()
	tmr, err := mixedLoad(tsrv.base, b.seed, perm, g, sx, b.cfg.K, b.dur, rec)
	if err != nil {
		tstop()
		return nil, err
	}
	res.traced = tmr.ph
	tg, err := checkMixed(tsrv.base, b.seed, sx, b.cfg.K, tmr)
	tstop()
	if err != nil {
		return nil, err
	}
	res.gate = res.gate.plus(tg)
	res.spans = rec.finish()
	reqs := ordered(groupSpans(res.spans))
	l := httpChain(false).ledger(reqs, func(r *reqSpans) bool { return isRead(r) && r.count[spanPush] > 0 })
	res.ledger = &l
	m := httpLayers(res.spans, reqs, len(tmr.acked))
	for _, k := range []string{"shard.push_self_us_p50", "lu.solve_us_p50", "lu.solve_share", "lu.support_per_solve", "lu.rhs_nnz_per_solve", "shard.solves_per_query", "shard.shards_solved_per_query"} {
		m[k] = 0 // no lu seam across epochs: the push is not split here
	}
	var apply, rebuilt []float64
	for _, s := range res.spans {
		if s.Name == spanApply {
			apply = append(apply, ms(s.dur()))
			rebuilt = append(rebuilt, float64(s.N[0]))
		}
	}
	m["shard.apply_ms_p50"] = median(apply)
	m["shard.shards_rebuilt_per_apply"] = mean(rebuilt)
	acked := tmr.wal1.Acked - tmr.wal0.Acked
	m["server.batches_per_compaction"] = ratio(acked, tmr.wal1.Compactions-tmr.wal0.Compactions)
	m["wal.fsyncs_per_update"] = ratio(tmr.wal1.Fsyncs-tmr.wal0.Fsyncs, acked)
	m["wal.bytes_per_update"] = ratio(tmr.wal1.Bytes-tmr.wal0.Bytes, acked)
	for k, v := range mixedInfo(tmr) {
		m[k] = v
	}
	res.layers = m
	return res, nil
}

// mixedInfo is the update side of an http-mixed-wal phase.
func mixedInfo(mr *mixedRun) map[string]float64 {
	late := durationsMs(mr.late)
	return map[string]float64{
		"client.update_ack_ms_p50":      median(durationsMs(mr.ack)),
		"client.update_visible_ms_p50":  median(durationsMs(mr.visible)),
		"client.updates_acked":          float64(len(mr.acked)),
		"client.update_lateness_ms_max": quantile(late, 1),
	}
}
