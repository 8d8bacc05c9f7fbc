package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/obs"
	"odbgc/internal/obs/span"
	"odbgc/internal/server"
	"odbgc/internal/storage"
	"odbgc/internal/storage/disk"
)

// The serving workload: a closed loop of sessions with zero think time,
// one per core of the machine the figures in METRICS.md were taken on. A
// closed loop because an open-loop generator's sleeps overshoot by more
// than a request's median round trip.
const (
	sessions       = 2
	hubsPerSession = 64
	hubSlots       = 8
	hubBytes       = 256
	warmupSteps    = 1000 // per session, before any timing

	// sliceLen divides the measured window; ops_s is the median of the
	// slices' throughputs, so that a stall of the shared disk moves it less
	// than it moves the mean.
	sliceLen = 500 * time.Millisecond
)

// storageConfig is odbgcd's default geometry: 8 KB pages, 12-page
// partitions and a buffer pool of one partition (96 KB).
var storageConfig = storage.Config{PageSize: 8192, PagesPerPartition: 12, BufferPages: 12}

// rig is one odbgcd instance built in-process as the daemon builds it by
// default: SAGA 10% with an FGS-HB estimator behind the CGS/CB circuit
// breaker, updated-pointer selection, a 512-span flight recorder, the
// metrics registry, a disk store at fsync=always and a checkpoint every
// 1024 commits.
type rig struct {
	fs     *memFS
	store  *disk.Store
	addr   string
	drain  chan struct{}
	done   chan error
	cancel context.CancelFunc
}

func startRig(lane *Lane) (*rig, error) {
	pr := probe{lane}
	mem := newMemFS()
	var fs disk.FS = mem
	if lane != nil {
		fs = timedFS{probe: pr, inner: fs}
	}
	st, _, err := disk.Open(disk.Options{FS: fs, Fsync: disk.FsyncAlways})
	if err != nil {
		return nil, err
	}
	mgr, err := storage.NewManager(storageConfig)
	if err != nil {
		return nil, err
	}
	heap := gc.NewHeap(objstore.NewStore(), mgr)
	if err := server.RebuildHeap(heap, st); err != nil {
		return nil, err
	}
	var durable storage.Backend = st
	if lane != nil {
		durable = &timedBackend{probe: pr, inner: st}
	}
	heap.SetDurable(durable)

	primary, err := core.NewEstimator("fgs-hb", 0.8)
	if err != nil {
		return nil, err
	}
	fallback, err := core.NewEstimator("cgs-cb", 0.8)
	if err != nil {
		return nil, err
	}
	breaker, err := server.NewBreaker(server.BreakerConfig{TripAfter: 5, Cooldown: 8, HalfOpenProbes: 3}, primary, fallback)
	if err != nil {
		return nil, err
	}
	var est core.Estimator = breaker
	if lane != nil {
		est = &timedEstimator{probe: pr, inner: breaker}
	}
	var pol core.RatePolicy
	if pol, err = core.NewSAGA(core.SAGAConfig{Frac: requested}, est); err != nil {
		return nil, err
	}
	var sel gc.SelectionPolicy = gc.UpdatedPointer{}
	if lane != nil {
		pol, sel = wrapPolicy(pol, pr), wrapSelection(sel, pr)
	}
	live := obs.NewLive()
	m := server.NewMetrics(live.Registry())
	eng, err := server.NewEngine(heap, server.EngineConfig{
		Policy:          pol,
		Selection:       sel,
		Breaker:         breaker,
		Metrics:         m,
		Observer:        obs.NewMulti(live),
		Recorder:        span.NewRecorder(span.Config{Capacity: 512}),
		Durable:         durable,
		CheckpointEvery: 1024,
	})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0"}, eng, m)
	if err != nil {
		return nil, err
	}
	addr, err := srv.Listen()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &rig{fs: mem, store: st, addr: addr, drain: make(chan struct{}), done: make(chan error, 1), cancel: cancel}
	go func() { r.done <- srv.Serve(ctx, r.drain) }()
	return r, nil
}

// stop closes the sessions, drains the server, seals the store as odbgcd
// does on drain, then reopens and rebuilds it: every hub must hold exactly
// the slots its session last had acknowledged. It returns the time the
// reopen and rebuild took.
func (r *rig) stop(ss []*session) (time.Duration, error) {
	for _, s := range ss {
		_ = s.cl.Close()
	}
	close(r.drain)
	err := <-r.done
	r.cancel()
	if err != nil {
		return 0, fmt.Errorf("serve: %w", err)
	}
	if err := r.store.Commit(); err != nil {
		return 0, err
	}
	if err := r.store.Checkpoint(); err != nil {
		return 0, err
	}
	if err := r.store.Close(); err != nil {
		return 0, err
	}

	start := time.Now()
	st, _, err := disk.Open(disk.Options{FS: r.fs})
	if err != nil {
		return 0, fmt.Errorf("reopening store: %w", err)
	}
	defer st.Close()
	mgr, err := storage.NewManager(storageConfig)
	if err != nil {
		return 0, err
	}
	heap := gc.NewHeap(objstore.NewStore(), mgr)
	if err := server.RebuildHeap(heap, st); err != nil {
		return 0, err
	}
	took := time.Since(start)
	for i, s := range ss {
		for h, hub := range s.hubs {
			o := heap.Store().Get(objstore.OID(hub))
			if o == nil {
				return 0, fmt.Errorf("session %d: hub %d missing after recovery", i, hub)
			}
			for k, want := range s.slots[h] {
				if got := uint64(o.Slots[k]); got != want {
					return 0, fmt.Errorf("session %d: hub %d slot %d holds %d after recovery, acknowledged %d", i, hub, k, got, want)
				}
			}
		}
	}
	return took, nil
}

// session is one client connection and the hubs it owns. It keeps the hub
// contents the server has acknowledged, which recovery must reproduce.
type session struct {
	cl    *server.Client
	conn  net.Conn
	rng   *rand.Rand
	lane  *Lane // nil when untraced
	hubs  [hubsPerSession]uint64
	slots [hubsPerSession][hubSlots]uint64

	nextID uint64
	wbuf   bytes.Buffer
	rbuf   []byte
	rd     bytes.Reader
	err    error // a transport failure; the session stops

	// Measurements, taken while record is set. slices counts the requests
	// that completed in each sliceLen of the window starting at begin.
	record                    bool
	begin                     time.Time
	slices                    []int64
	rtt, queue, service, wire hist
	busy                      time.Duration
	attempted, failed         int64
	shed, expired, errors     int64
}

func dialSession(addr string, seed int64, lane *Lane) (*session, error) {
	cl, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &session{cl: cl, conn: cl.Conn(), rng: rand.New(rand.NewSource(seed)), lane: lane}, nil
}

// do sends one request and waits for its response, timing the round trip
// from encoding the request to decoding the response.
func (s *session) do(req server.Request) (server.Response, bool) {
	var resp server.Response
	if s.err != nil {
		return resp, false
	}
	s.nextID++
	req.ID = s.nextID
	start := time.Now()
	if s.lane != nil {
		s.lane.Start("server.rtt")
		s.lane.Start("server.encode")
	}
	s.wbuf.Reset()
	err := server.WriteFrame(&s.wbuf, req)
	if s.lane != nil {
		s.lane.End()
	}
	if err == nil {
		_, err = s.conn.Write(s.wbuf.Bytes())
	}
	if err == nil {
		err = s.readFrame(&resp)
	}
	rtt := time.Since(start)
	if s.lane != nil {
		s.lane.End()
	}
	if err == nil && resp.ID != req.ID {
		err = fmt.Errorf("response id %d for request %d", resp.ID, req.ID)
	}
	if err != nil {
		s.err = err
	}
	ok := err == nil && resp.Status == server.StatusOK
	if !s.record {
		return resp, ok
	}
	s.attempted++
	s.busy += rtt
	switch {
	case ok:
		if i := int(time.Since(s.begin) / sliceLen); i < len(s.slices) {
			s.slices[i]++
		}
		s.rtt.add(int64(rtt))
		s.queue.add(resp.QueueUs * 1e3)
		s.service.add(resp.ServiceUs * 1e3)
		s.wire.add(int64(rtt) - (resp.QueueUs+resp.ServiceUs)*1e3)
	case err != nil:
		s.failed++
		s.errors++
	default:
		s.failed++
		switch {
		case resp.Status == server.StatusShed:
			s.shed++
		case resp.Expired:
			s.expired++
		default:
			s.errors++
		}
	}
	return resp, ok
}

// readFrame reads one response frame off the connection, then decodes it
// with server.ReadFrame so that decoding is timed apart from waiting.
func (s *session) readFrame(resp *server.Response) error {
	var hdr [4]byte
	if _, err := io.ReadFull(s.conn, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > server.MaxFrameBytes {
		return fmt.Errorf("response frame of %d bytes", n)
	}
	if cap(s.rbuf) < 4+int(n) {
		s.rbuf = make([]byte, 4+int(n))
	}
	s.rbuf = s.rbuf[:4+int(n)]
	copy(s.rbuf, hdr[:])
	if _, err := io.ReadFull(s.conn, s.rbuf[4:]); err != nil {
		return err
	}
	if s.lane != nil {
		s.lane.Start("server.decode")
		defer s.lane.End()
	}
	s.rd.Reset(s.rbuf)
	return server.ReadFrame(&s.rd, resp)
}

// createHubs creates the session's rooted hubs.
func (s *session) createHubs() error {
	for h := range s.hubs {
		resp, ok := s.do(server.Request{Op: server.OpCreate, Size: hubBytes, Slots: hubSlots})
		if !ok {
			return fmt.Errorf("creating hub: %s %s %v", resp.Status, resp.Error, s.err)
		}
		s.hubs[h] = resp.OID
	}
	return nil
}

// step issues one operation of the mix: 20% create a 200–400 B object,
// link it into a hub slot (the old occupant becomes garbage) and unroot
// it; 30% access and 35% update a live object; 15% clear a hub slot.
func (s *session) step() {
	h, k := s.rng.Intn(hubsPerSession), s.rng.Intn(hubSlots)
	target := s.hubs[h]
	if s.slots[h][k] != 0 {
		target = s.slots[h][k]
	}
	switch r := s.rng.Float64(); {
	case r < 0.20:
		resp, ok := s.do(server.Request{Op: server.OpCreate, Size: 200 + s.rng.Intn(201), Slots: 3})
		if !ok {
			return
		}
		if _, ok := s.do(server.Request{Op: server.OpSet, OID: s.hubs[h], Slot: k, Dst: resp.OID}); ok {
			s.slots[h][k] = resp.OID
		}
		s.do(server.Request{Op: server.OpUnroot, OID: resp.OID})
	case r < 0.50:
		s.do(server.Request{Op: server.OpAccess, OID: target})
	case r < 0.85:
		s.do(server.Request{Op: server.OpUpdate, OID: target})
	default:
		if _, ok := s.do(server.Request{Op: server.OpSet, OID: s.hubs[h], Slot: k}); ok {
			s.slots[h][k] = 0
		}
	}
}

// drive runs every session's closed loop until the deadline, or for steps
// operations each when steps > 0.
func drive(ss []*session, deadline time.Time, steps int) {
	var wg sync.WaitGroup
	for _, s := range ss {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			for i := 0; s.err == nil && (steps > 0 && i < steps || steps == 0 && time.Now().Before(deadline)); i++ {
				s.step()
			}
		}(s)
	}
	wg.Wait()
}

// setupServe starts a rig, connects the sessions, creates their hubs and
// runs the warm-up.
func setupServe(seed int64, tr *Tracer) (*rig, []*session, error) {
	var engine *Lane
	if tr != nil {
		engine = tr.Lane("engine")
	}
	r, err := startRig(engine)
	if err != nil {
		return nil, nil, err
	}
	var ss []*session
	for i := 0; i < sessions; i++ {
		var l *Lane
		if tr != nil {
			l = tr.Lane(fmt.Sprintf("session-%d", i))
		}
		s, err := dialSession(r.addr, seed*sessions+int64(i), l)
		if err != nil {
			return nil, nil, err
		}
		ss = append(ss, s)
		if err := s.createHubs(); err != nil {
			return nil, nil, err
		}
	}
	drive(ss, time.Time{}, warmupSteps)
	for _, s := range ss {
		if s.err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return r, ss, nil
}

// window is one timed stretch of closed-loop traffic.
type window struct {
	secs                      float64
	rate                      float64 // median throughput over the slices, requests per second
	ok, attempted, failed     int64
	rtt, queue, service, wire hist
	outside                   []float64 // per session: share of the window spent outside requests
	shed, expired, errors     int64
}

func measure(ss []*session, secs float64) *window {
	start := time.Now()
	n := int(secs * float64(time.Second) / float64(sliceLen))
	for _, s := range ss {
		s.record, s.begin, s.slices = true, start, make([]int64, n)
	}
	drive(ss, start.Add(time.Duration(secs*float64(time.Second))), 0)
	w := &window{secs: time.Since(start).Seconds()}
	perSlice := make([]float64, n)
	for _, s := range ss {
		for i, c := range s.slices {
			perSlice[i] += float64(c)
		}
	}
	w.rate = median(perSlice) / sliceLen.Seconds()
	for _, s := range ss {
		s.record = false
		w.attempted += s.attempted
		w.failed += s.failed
		w.ok += s.attempted - s.failed
		w.rtt.merge(&s.rtt)
		w.queue.merge(&s.queue)
		w.service.merge(&s.service)
		w.wire.merge(&s.wire)
		w.shed += s.shed
		w.expired += s.expired
		w.errors += s.errors
		w.outside = append(w.outside, 1-s.busy.Seconds()/w.secs)
	}
	return w
}

func runServe(o options) (*outcome, error) {
	if o.trace {
		return traceServe(o)
	}
	var setups []float64
	var r *rig
	var ss []*session
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		var err error
		if r, ss, err = setupServe(o.seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRounds-1 {
			if _, err := r.stop(ss); err != nil {
				return nil, err
			}
		}
	}
	// live_heap_mb is read here, after the fixed amount of warm-up work:
	// after the timed window the heap would grow with the number of
	// requests the window happened to fit.
	before := heapStats()
	w := measure(ss, o.seconds)
	after := heapStats()
	if _, err := r.stop(ss); err != nil {
		return nil, err
	}
	return &outcome{attempted: w.attempted, failed: w.failed, values: map[string]float64{
		"setup_s":            median(setups),
		"ops_s":              w.rate,
		"op_p50_us":          w.rtt.quantile(0.50) / 1e3,
		"alloc_bytes_per_op": float64(after.TotalAlloc-before.TotalAlloc) / float64(w.attempted),
		"live_heap_mb":       float64(before.HeapAlloc) / (1 << 20),
	}}, nil
}

// traceServe measures half the time on an untraced rig and half on a
// traced one, and reports the per-layer metrics of the traced half.
func traceServe(o options) (*outcome, error) {
	half := o.seconds / 2
	r, ss, err := setupServe(o.seed, nil)
	if err != nil {
		return nil, err
	}
	plain := measure(ss, half)
	if _, err := r.stop(ss); err != nil {
		return nil, err
	}

	tr := NewTracer()
	if r, ss, err = setupServe(o.seed, tr); err != nil {
		return nil, err
	}
	stats := func() (*server.Stats, error) {
		resp, ok := ss[0].do(server.Request{Op: server.OpStats})
		if !ok || resp.Stats == nil {
			return nil, fmt.Errorf("stats request failed: %s %v", resp.Error, ss[0].err)
		}
		return resp.Stats, nil
	}
	st0, err := stats()
	if err != nil {
		return nil, err
	}
	tr.Reset()
	w := measure(ss, half)
	st1, err := stats()
	if err != nil {
		return nil, err
	}
	recovery, err := r.stop(ss)
	if err != nil {
		return nil, err
	}

	out := &outcome{attempted: plain.attempted + w.attempted, failed: plain.failed + w.failed, values: map[string]float64{}}
	v := out.values
	ops := float64(w.attempted)
	v["storage.app_io_per_op"] = float64(st1.AppIO-st0.AppIO) / ops
	v["storage.partitions"] = float64(st1.Partitions)
	v["disk.recovery_ms"] = float64(recovery) / 1e6
	v["server.rtt_us_p50"] = w.rtt.quantile(0.50) / 1e3
	v["server.rtt_us_p99"] = w.rtt.quantile(0.99) / 1e3
	v["server.queue_us_p50"] = w.queue.quantile(0.50) / 1e3
	v["server.queue_us_p99"] = w.queue.quantile(0.99) / 1e3
	v["server.service_us_p50"] = w.service.quantile(0.50) / 1e3
	v["server.service_us_p99"] = w.service.quantile(0.99) / 1e3
	v["server.wire_us_p50"] = w.wire.quantile(0.50) / 1e3
	v["server.encode_ns"] = meanSelf(tr.Agg("server.encode"))
	v["server.decode_ns"] = meanSelf(tr.Agg("server.decode"))
	v["server.shed"] = float64(w.shed)
	v["server.expired"] = float64(w.expired)
	v["server.errors"] = float64(w.errors)
	v["server.session_outside_frac"] = median(w.outside)
	v["bench.fail_frac"] = ratio(float64(out.failed), float64(out.attempted))
	v["bench.trace_overhead_frac"] = ratio(plain.rate, w.rate) - 1
	layerValues(tr, v, 1, ops)

	fmt.Fprintf(o.out, "%d sessions, closed loop: %d requests untraced in %.1fs, %d traced in %.1fs\n",
		sessions, plain.attempted, plain.secs, w.attempted, w.secs)
	fmt.Fprintf(o.out, "database: %d objects, %d bytes in %d partitions; %d collections in the traced window\n",
		st1.Objects, st1.DBBytes, st1.Partitions, st1.Collections-st0.Collections)
	tr.Table(o.out)
	fmt.Fprintf(o.out, "%-24s %12s %12s\n", "wait", "p50_us", "p99_us")
	for _, row := range []struct {
		name string
		h    *hist
	}{{"server.queue", &w.queue}, {"server.service", &w.service}, {"server.wire", &w.wire}, {"server.rtt", &w.rtt}} {
		fmt.Fprintf(o.out, "%-24s %12.1f %12.1f\n", row.name, row.h.quantile(0.5)/1e3, row.h.quantile(0.99)/1e3)
	}
	for i, f := range w.outside {
		fmt.Fprintf(o.out, "session-%d spent %.1f%% of the window outside requests\n", i, 100*f)
	}
	fmt.Fprintf(o.out, "tracing overhead: %.1f%% per request\n", 100*v["bench.trace_overhead_frac"])
	if err := tr.Dump(o.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.out, "spans written to %s\n", o.spans)
	return out, nil
}
