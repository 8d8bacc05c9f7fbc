package main

import (
	"errors"
	"io"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/sim"
	"odbgc/internal/storage"
	"odbgc/internal/storage/disk"
	"odbgc/internal/trace"
)

// The wrappers below time calls into each layer's public interface and
// forward them unchanged. They are handed to the program through the
// configs it already accepts, so a traced run executes the same program
// with spans around the layer boundaries.

// probe is what every wrapper carries: the lane its spans go to. Counters
// go to the lane's tracer.
type probe struct {
	l *Lane
}

func (p probe) add(name string, n int64) { p.l.t.Add(name, n) }

// sagaDiag mirrors the optional estimator diagnostics the simulator and
// engine type-assert on.
type sagaDiag interface {
	LastEstimate() float64
	LastTarget() float64
	LastInterval() uint64
}

type timedPolicy struct {
	probe
	inner core.RatePolicy
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) ShouldCollect(now core.Clock) bool {
	p.l.Start("core.should_collect")
	ok := p.inner.ShouldCollect(now)
	p.l.End()
	if ok {
		p.add("core.triggers", 1)
	}
	return ok
}

// AfterCollection closes the gc.collect span the selection wrapper opened
// and reads the collection's result before the policy sees it.
func (p *timedPolicy) AfterCollection(now core.Clock, h core.HeapState, res gc.CollectionResult) {
	if p.l.Open("gc.collect") {
		p.l.End()
		p.add("gc.collections", 1)
		p.add("gc.reclaimed_bytes", int64(res.ReclaimedBytes))
		p.add("gc.examined_bytes", int64(res.ReclaimedBytes+res.LiveBytes))
		p.add("gc.io", int64(res.IO.GCIO()))
	} else {
		p.add("core.empty_triggers", 1)
	}
	p.l.Start("core.after_collection")
	p.inner.AfterCollection(now, h, res)
	p.l.End()
}

type idlePolicy struct {
	*timedPolicy
	idle core.IdleCollector
}

func (p idlePolicy) ShouldCollectIdle(now core.Clock, h core.HeapState) bool {
	p.l.Start("core.should_collect_idle")
	ok := p.idle.ShouldCollectIdle(now, h)
	p.l.End()
	return ok
}

type diagPolicy struct {
	*timedPolicy
	sagaDiag
}

type diagIdlePolicy struct {
	idlePolicy
	sagaDiag
}

// wrapPolicy times p, exposing exactly the optional interfaces p has.
func wrapPolicy(p core.RatePolicy, pr probe) core.RatePolicy {
	t := &timedPolicy{probe: pr, inner: p}
	d, isDiag := p.(sagaDiag)
	ic, isIdle := p.(core.IdleCollector)
	switch {
	case isDiag && isIdle:
		return diagIdlePolicy{idlePolicy{t, ic}, d}
	case isDiag:
		return diagPolicy{t, d}
	case isIdle:
		return idlePolicy{t, ic}
	}
	return t
}

type timedSelection struct {
	probe
	inner gc.SelectionPolicy
}

func (s *timedSelection) Name() string { return s.inner.Name() }

// Select opens the gc.collect span when it returns a partition: the
// collection runs from here to the policy's AfterCollection.
func (s *timedSelection) Select(h *gc.Heap) (storage.PartitionID, bool) {
	if s.l.Open("gc.collect") {
		// The previous collection failed before reaching AfterCollection.
		s.l.End()
	}
	s.l.Start("gc.select")
	part, ok := s.inner.Select(h)
	s.l.End()
	if ok {
		s.l.Start("gc.collect")
	}
	return part, ok
}

type yieldSelection struct {
	*timedSelection
	yo gc.YieldObserver
}

func (s yieldSelection) ObserveCollection(res gc.CollectionResult) {
	s.l.Start("gc.observe_yield")
	s.yo.ObserveCollection(res)
	s.l.End()
}

// wrapSelection times s, exposing gc.YieldObserver only when s has it.
func wrapSelection(s gc.SelectionPolicy, pr probe) gc.SelectionPolicy {
	t := &timedSelection{probe: pr, inner: s}
	if yo, ok := s.(gc.YieldObserver); ok {
		return yieldSelection{t, yo}
	}
	return t
}

type timedEstimator struct {
	probe
	inner core.Estimator
}

func (e *timedEstimator) Name() string { return e.inner.Name() }

func (e *timedEstimator) ObserveCollection(h core.HeapState, res gc.CollectionResult) {
	e.l.Start("core.observe")
	e.inner.ObserveCollection(h, res)
	e.l.End()
}

func (e *timedEstimator) EstimateGarbage(h core.HeapState) float64 {
	e.l.Start("core.estimate")
	v := e.inner.EstimateGarbage(h)
	e.l.End()
	return v
}

// timedBackend times the durable backend the heap logs through.
type timedBackend struct {
	probe
	inner storage.Backend
}

func (b *timedBackend) log(err error) error {
	b.l.End()
	return err
}

func (b *timedBackend) LogAlloc(oid objstore.OID, class objstore.Class, size, nslots int) error {
	b.l.Start("disk.log")
	return b.log(b.inner.LogAlloc(oid, class, size, nslots))
}

func (b *timedBackend) LogSet(src objstore.OID, slot int, dst objstore.OID) error {
	b.l.Start("disk.log")
	return b.log(b.inner.LogSet(src, slot, dst))
}

func (b *timedBackend) LogRoot(oid objstore.OID, on bool) error {
	b.l.Start("disk.log")
	return b.log(b.inner.LogRoot(oid, on))
}

func (b *timedBackend) LogReclaim(oids []objstore.OID) error {
	b.l.Start("disk.log")
	return b.log(b.inner.LogReclaim(oids))
}

func (b *timedBackend) Commit() error {
	b.l.Start("disk.commit")
	err := b.inner.Commit()
	b.l.End()
	return err
}

func (b *timedBackend) Checkpoint() error {
	b.l.Start("disk.checkpoint")
	err := b.inner.Checkpoint()
	b.l.End()
	return err
}

func (b *timedBackend) Close() error {
	b.l.Start("disk.close")
	err := b.inner.Close()
	b.l.End()
	return err
}

// timedFS times the file operations under the disk backend and counts the
// bytes written to the WAL and to the page file.
type timedFS struct {
	probe
	inner disk.FS
}

func (fs timedFS) Open(name string) (disk.File, error) {
	f, err := fs.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{probe: fs.probe, inner: f, wal: name == "wal.log"}, nil
}

func (fs timedFS) Remove(name string) error { return fs.inner.Remove(name) }

type timedFile struct {
	probe
	inner disk.File
	wal   bool
}

func (f *timedFile) ReadAt(p []byte, off int64) (int, error) {
	f.l.Start("disk.fs.read")
	n, err := f.inner.ReadAt(p, off)
	f.l.End()
	return n, err
}

func (f *timedFile) WriteAt(p []byte, off int64) (int, error) {
	f.l.Start("disk.fs.write")
	n, err := f.inner.WriteAt(p, off)
	f.l.End()
	if f.wal {
		f.add("disk.wal_bytes", int64(n))
	} else {
		f.add("disk.page_bytes", int64(n))
	}
	return n, err
}

func (f *timedFile) Sync() error {
	if f.l.Open("disk.commit") {
		f.add("disk.commit_syncs", 1)
	}
	f.l.Start("disk.fs.sync")
	err := f.inner.Sync()
	f.l.End()
	return err
}

func (f *timedFile) Size() (int64, error)      { return f.inner.Size() }
func (f *timedFile) Truncate(size int64) error { return f.inner.Truncate(size) }
func (f *timedFile) Close() error              { return f.inner.Close() }

// tracedSource times decoding as trace.decode and the simulator's work on
// each event, from one Read returning to the next Read call, as sim.step.
// The Read that reports the end of the trace opens sim.finish, which the
// caller closes when the replay returns.
type tracedSource struct {
	l     *Lane
	inner sim.EventSource
}

func (s *tracedSource) Read() (trace.Event, error) {
	if s.l.Open("sim.step") {
		s.l.End()
	}
	s.l.Start("trace.decode")
	e, err := s.inner.Read()
	s.l.End()
	switch {
	case err == nil:
		s.l.Start("sim.step")
	case errors.Is(err, io.EOF):
		s.l.Start("sim.finish")
	}
	return e, err
}
