package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"odbgc/internal/storage"
)

// Snapshotter is implemented by policies and estimators whose scheduling
// state must survive a checkpoint/resume cycle. Stateless components
// (NeverCollect, OracleEstimator) simply do not implement it.
//
// SnapshotState returns an opaque, self-contained encoding; RestoreState
// accepts exactly what SnapshotState produced for a component constructed
// with the same configuration. Configuration itself is not part of the
// state — the resuming caller reconstructs components from configuration and
// then feeds them their state.
type Snapshotter interface {
	SnapshotState() ([]byte, error)
	RestoreState(data []byte) error
}

// SnapshotComponent captures a component's state if it has any. Components
// that do not implement Snapshotter yield nil, which RestoreComponent
// accepts back as a no-op.
func SnapshotComponent(v any) ([]byte, error) {
	if s, ok := v.(Snapshotter); ok {
		return s.SnapshotState()
	}
	return nil, nil
}

// RestoreComponent hands previously captured state back to a component.
func RestoreComponent(v any, data []byte) error {
	if s, ok := v.(Snapshotter); ok {
		return s.RestoreState(data)
	}
	if len(data) != 0 {
		return fmt.Errorf("core: %d bytes of state for a stateless component %T", len(data), v)
	}
	return nil
}

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// --- policies ---------------------------------------------------------------

type fixedRateState struct {
	NextAt uint64
	Armed  bool
}

// SnapshotState implements Snapshotter.
func (p *FixedRate) SnapshotState() ([]byte, error) {
	return gobEncode(fixedRateState{NextAt: p.nextAt, Armed: p.armed})
}

// RestoreState implements Snapshotter.
func (p *FixedRate) RestoreState(data []byte) error {
	var st fixedRateState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	p.nextAt, p.armed = st.NextAt, st.Armed
	return nil
}

type saioState struct {
	HistApp   []uint64
	HistGC    []uint64
	LastAppIO uint64
	NextAt    uint64
	Armed     bool
}

// SnapshotState implements Snapshotter.
func (p *SAIO) SnapshotState() ([]byte, error) {
	return gobEncode(saioState{
		HistApp:   append([]uint64(nil), p.histApp...),
		HistGC:    append([]uint64(nil), p.histGC...),
		LastAppIO: p.lastAppIO,
		NextAt:    p.nextAt,
		Armed:     p.armed,
	})
}

// RestoreState implements Snapshotter.
func (p *SAIO) RestoreState(data []byte) error {
	var st saioState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	p.histApp = st.HistApp
	p.histGC = st.HistGC
	p.lastAppIO = st.LastAppIO
	p.nextAt = st.NextAt
	p.armed = st.Armed
	return nil
}

type sagaState struct {
	Slope        float64
	HaveSlope    bool
	PrevT        uint64
	PrevTot      float64
	HavePrev     bool
	NextAt       uint64
	Armed        bool
	LastEstimate float64
	LastTarget   float64
	LastInterval uint64
	ClampedMin   uint64
	ClampedMax   uint64
	BadSignals   uint64
	Estimator    []byte
}

// SnapshotState implements Snapshotter; the estimator's state rides along.
func (p *SAGA) SnapshotState() ([]byte, error) {
	est, err := SnapshotComponent(p.est)
	if err != nil {
		return nil, err
	}
	return gobEncode(sagaState{
		Slope: p.slope, HaveSlope: p.haveSlope,
		PrevT: p.prevT, PrevTot: p.prevTot, HavePrev: p.havePrev,
		NextAt: p.nextAt, Armed: p.armed,
		LastEstimate: p.lastEstimate, LastTarget: p.lastTarget, LastInterval: p.lastInterval,
		ClampedMin: p.clampedMin, ClampedMax: p.clampedMax, BadSignals: p.badSignals,
		Estimator: est,
	})
}

// RestoreState implements Snapshotter.
func (p *SAGA) RestoreState(data []byte) error {
	var st sagaState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	if err := RestoreComponent(p.est, st.Estimator); err != nil {
		return err
	}
	p.slope, p.haveSlope = st.Slope, st.HaveSlope
	p.prevT, p.prevTot, p.havePrev = st.PrevT, st.PrevTot, st.HavePrev
	p.nextAt, p.armed = st.NextAt, st.Armed
	p.lastEstimate, p.lastTarget, p.lastInterval = st.LastEstimate, st.LastTarget, st.LastInterval
	p.clampedMin, p.clampedMax, p.badSignals = st.ClampedMin, st.ClampedMax, st.BadSignals
	return nil
}

type piState struct {
	Integral     float64
	NextAt       uint64
	Armed        bool
	LastEstimate float64
	LastTarget   float64
	LastInterval uint64
	Estimator    []byte
}

// SnapshotState implements Snapshotter.
func (p *PIController) SnapshotState() ([]byte, error) {
	est, err := SnapshotComponent(p.est)
	if err != nil {
		return nil, err
	}
	return gobEncode(piState{
		Integral: p.integral, NextAt: p.nextAt, Armed: p.armed,
		LastEstimate: p.lastEstimate, LastTarget: p.lastTarget, LastInterval: p.lastInterval,
		Estimator: est,
	})
}

// RestoreState implements Snapshotter.
func (p *PIController) RestoreState(data []byte) error {
	var st piState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	if err := RestoreComponent(p.est, st.Estimator); err != nil {
		return err
	}
	p.integral = st.Integral
	p.nextAt, p.armed = st.NextAt, st.Armed
	p.lastEstimate, p.lastTarget, p.lastInterval = st.LastEstimate, st.LastTarget, st.LastInterval
	return nil
}

type coupledState struct {
	NextAt      uint64
	Armed       bool
	LastEffFrac float64
	Estimator   []byte
}

// SnapshotState implements Snapshotter.
func (p *Coupled) SnapshotState() ([]byte, error) {
	est, err := SnapshotComponent(p.est)
	if err != nil {
		return nil, err
	}
	return gobEncode(coupledState{
		NextAt: p.nextAt, Armed: p.armed, LastEffFrac: p.lastEffFrac, Estimator: est,
	})
}

// RestoreState implements Snapshotter.
func (p *Coupled) RestoreState(data []byte) error {
	var st coupledState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	if err := RestoreComponent(p.est, st.Estimator); err != nil {
		return err
	}
	p.nextAt, p.armed, p.lastEffFrac = st.NextAt, st.Armed, st.LastEffFrac
	return nil
}

type opportunisticState struct {
	Inner     []byte
	Estimator []byte
}

// SnapshotState implements Snapshotter: the wrapped policy and estimator
// carry the actual state.
func (p *Opportunistic) SnapshotState() ([]byte, error) {
	inner, err := SnapshotComponent(p.inner)
	if err != nil {
		return nil, err
	}
	est, err := SnapshotComponent(p.est)
	if err != nil {
		return nil, err
	}
	return gobEncode(opportunisticState{Inner: inner, Estimator: est})
}

// RestoreState implements Snapshotter.
func (p *Opportunistic) RestoreState(data []byte) error {
	var st opportunisticState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	if err := RestoreComponent(p.inner, st.Inner); err != nil {
		return err
	}
	return RestoreComponent(p.est, st.Estimator)
}

// --- estimators -------------------------------------------------------------

type cgscbState struct {
	LastReclaimed float64
}

// SnapshotState implements Snapshotter.
func (e *CGSCB) SnapshotState() ([]byte, error) {
	return gobEncode(cgscbState{LastReclaimed: e.lastReclaimed})
}

// RestoreState implements Snapshotter.
func (e *CGSCB) RestoreState(data []byte) error {
	var st cgscbState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	e.lastReclaimed = st.LastReclaimed
	return nil
}

type fgshbState struct {
	GppoH   float64
	HaveObs bool
}

// SnapshotState implements Snapshotter.
func (e *FGSHB) SnapshotState() ([]byte, error) {
	return gobEncode(fgshbState{GppoH: e.gppoH, HaveObs: e.haveObs})
}

// RestoreState implements Snapshotter.
func (e *FGSHB) RestoreState(data []byte) error {
	var st fgshbState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	e.gppoH, e.haveObs = st.GppoH, st.HaveObs
	return nil
}

type fgsWindowState struct {
	Samples []float64
}

// SnapshotState implements Snapshotter.
func (e *FGSWindow) SnapshotState() ([]byte, error) {
	return gobEncode(fgsWindowState{Samples: append([]float64(nil), e.samples...)})
}

// RestoreState implements Snapshotter.
func (e *FGSWindow) RestoreState(data []byte) error {
	var st fgsWindowState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	e.samples = st.Samples
	return nil
}

type partitionGPPO struct {
	Part storage.PartitionID
	GPPO float64
}

type fgsPerPartitionState struct {
	PerPart []partitionGPPO // sorted by partition
	Global  fgshbState
}

// SnapshotState implements Snapshotter.
func (e *FGSPerPartition) SnapshotState() ([]byte, error) {
	st := fgsPerPartitionState{Global: fgshbState{GppoH: e.global.gppoH, HaveObs: e.global.haveObs}}
	for p, g := range e.perPart {
		st.PerPart = append(st.PerPart, partitionGPPO{Part: p, GPPO: g})
	}
	sort.Slice(st.PerPart, func(i, j int) bool { return st.PerPart[i].Part < st.PerPart[j].Part })
	return gobEncode(st)
}

// RestoreState implements Snapshotter.
func (e *FGSPerPartition) RestoreState(data []byte) error {
	var st fgsPerPartitionState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	e.perPart = make(map[storage.PartitionID]float64, len(st.PerPart))
	for _, pg := range st.PerPart {
		e.perPart[pg.Part] = pg.GPPO
	}
	e.global.gppoH, e.global.haveObs = st.Global.GppoH, st.Global.HaveObs
	return nil
}

type breakerState struct {
	Primary      []byte
	Fallback     []byte
	State        BreakerState
	ConsecBad    int
	CooldownLeft int
	ProbesGood   int
	Trips        uint64
	Recoveries   uint64
	BadSignals   uint64
}

// SnapshotState implements Snapshotter; both wrapped estimators' state
// rides along.
func (b *Breaker) SnapshotState() ([]byte, error) {
	primary, err := SnapshotComponent(b.primary)
	if err != nil {
		return nil, err
	}
	fallback, err := SnapshotComponent(b.fallback)
	if err != nil {
		return nil, err
	}
	return gobEncode(breakerState{
		Primary: primary, Fallback: fallback,
		State: b.state, ConsecBad: b.consecBad, CooldownLeft: b.cooldownLeft, ProbesGood: b.probesGood,
		Trips: b.trips, Recoveries: b.recoveries, BadSignals: b.badSignals,
	})
}

// RestoreState implements Snapshotter.
func (b *Breaker) RestoreState(data []byte) error {
	var st breakerState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	if err := RestoreComponent(b.primary, st.Primary); err != nil {
		return err
	}
	if err := RestoreComponent(b.fallback, st.Fallback); err != nil {
		return err
	}
	b.state, b.consecBad, b.cooldownLeft, b.probesGood = st.State, st.ConsecBad, st.CooldownLeft, st.ProbesGood
	b.trips, b.recoveries, b.badSignals = st.Trips, st.Recoveries, st.BadSignals
	return nil
}
