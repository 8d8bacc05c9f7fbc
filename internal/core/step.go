package core

import (
	"odbgc/internal/gc"
	"odbgc/internal/storage"
)

// Diagnostics is implemented by estimator-driven policies (SAGA, PI) that
// expose their last controller reading. Collect copies it into every
// record, so results, events and spans all report the same numbers.
type Diagnostics interface {
	// LastEstimate is the estimated garbage in bytes.
	LastEstimate() float64
	// LastTarget is the garbage level the policy is steering to, in bytes.
	LastTarget() float64
	// LastInterval is the scheduled overwrites until the next collection.
	LastInterval() uint64
}

// Collection records one control step: the single per-collection record
// behind simulator results, JSONL events and GC spans alike.
type Collection struct {
	Index     int    // collection number, 1-based
	Phase     string // application phase; set by the driver
	Clock     Clock  // policy clock after the collection
	Interval  uint64 // overwrites since the previous collection; set by the driver
	Partition storage.PartitionID

	ReclaimedBytes   int
	ReclaimedObjects int
	LiveBytes        int
	LiveObjects      int
	PartitionPO      int
	IO               storage.IOStats // this collection's I/O
	CumulativeIO     storage.IOStats // run totals just after this collection

	// Post-collection state.
	DatabaseBytes      int
	ActualGarbageBytes int
	ActualGarbageFrac  float64

	// Policy diagnostics (zero for policies without Diagnostics).
	EstimatedGarbageBytes float64
	EstimatedGarbageFrac  float64
	TargetGarbageBytes    float64
	TargetGarbageFrac     float64
	NextInterval          uint64
}

// ClockOf reads the policy clock off the heap's live counters.
func ClockOf(h *gc.Heap) Clock {
	st := h.Disk().Stats()
	return Clock{AppIO: st.AppIO(), GCIO: st.GCIO(), Overwrites: h.OverwriteClock()}
}

// Collect runs one step of the paper's feedback loop once the policy has
// called for a collection: select a partition, collect it, feed the yield
// to the selection policy, and report the outcome to the rate policy (and
// through it, the garbage estimator). ok is false when the selection found
// nothing worth collecting; the policy is then fed an empty result so it
// reschedules instead of retriggering on every event, and only the
// record's clock, database state and diagnostics are meaningful. A failed
// collection returns its error before the policy hears of it.
func Collect(p RatePolicy, sel gc.SelectionPolicy, h *gc.Heap) (c Collection, ok bool, err error) {
	part, ok := sel.Select(h)
	var res gc.CollectionResult
	if ok {
		if res, err = h.Collect(part); err != nil {
			return Collection{}, false, err
		}
		if yo, isYO := sel.(gc.YieldObserver); isYO {
			yo.ObserveCollection(res)
		}
	}
	now := ClockOf(h)
	p.AfterCollection(now, h, res)

	c = Collection{
		Index:              int(h.Collections()),
		Clock:              now,
		Partition:          res.Partition,
		ReclaimedBytes:     res.ReclaimedBytes,
		ReclaimedObjects:   res.ReclaimedObjects,
		LiveBytes:          res.LiveBytes,
		LiveObjects:        res.LiveObjects,
		PartitionPO:        res.PartitionPO,
		IO:                 res.IO,
		CumulativeIO:       h.Disk().Stats(),
		DatabaseBytes:      h.DatabaseBytes(),
		ActualGarbageBytes: h.ActualGarbageBytes(),
	}
	db := float64(c.DatabaseBytes)
	if db > 0 {
		c.ActualGarbageFrac = float64(c.ActualGarbageBytes) / db
	}
	if d, isDiag := p.(Diagnostics); isDiag {
		c.EstimatedGarbageBytes = d.LastEstimate()
		c.TargetGarbageBytes = d.LastTarget()
		c.NextInterval = d.LastInterval()
		if db > 0 {
			c.EstimatedGarbageFrac = c.EstimatedGarbageBytes / db
			c.TargetGarbageFrac = c.TargetGarbageBytes / db
		}
	}
	return c, ok, nil
}
