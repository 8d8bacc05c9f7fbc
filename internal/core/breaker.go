package core

import (
	"fmt"
	"math"

	"odbgc/internal/gc"
)

// BreakerState is the estimator circuit breaker's position.
type BreakerState int

// Breaker states. The numeric values are published on the
// odbgc_server_breaker_state gauge.
const (
	BreakerClosed   BreakerState = 0 // primary estimator serving
	BreakerHalfOpen BreakerState = 1 // probing the primary after a cooldown
	BreakerOpen     BreakerState = 2 // fallback estimator serving
)

// String names the state for logs and the stats op.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	// Static fallback: String sits on the per-request stats path, and the
	// numeric formatting would be its only allocation.
	return "state(invalid)"
}

// BreakerConfig parameterizes the estimator circuit breaker. A zero field
// takes its default; a negative one is rejected by NewBreaker.
type BreakerConfig struct {
	// TripAfter is how many consecutive bad signals (unusable estimates or
	// reported policy failures) open the breaker. Defaults to 5.
	TripAfter int
	// Cooldown is how many estimate requests the breaker stays open before
	// probing the primary again. Time is counted in observations, not
	// wall-clock, so breaker behavior is deterministic under replay.
	// Defaults to 8.
	Cooldown int
	// HalfOpenProbes is how many consecutive good primary signals close
	// the breaker again. Defaults to 3.
	HalfOpenProbes int
}

func (c *BreakerConfig) applyDefaults() error {
	if c.TripAfter < 0 || c.Cooldown < 0 || c.HalfOpenProbes < 0 {
		return fmt.Errorf("core: breaker config %+v: every field must be >= 0 (0 means the default)", *c)
	}
	if c.TripAfter == 0 {
		c.TripAfter = 5
	}
	if c.Cooldown == 0 {
		c.Cooldown = 8
	}
	if c.HalfOpenProbes == 0 {
		c.HalfOpenProbes = 3
	}
	return nil
}

// Breaker is an Estimator that wraps a primary estimator (the intended
// pairing is FGS/HB over CGS/CB) with a circuit breaker degrading to a
// fallback. It is the single estimator-degradation mechanism for both the
// simulator and the live server.
//
// A "bad signal" is a primary estimate that is physically meaningless —
// NaN, infinite, negative, or more garbage than the database holds — or a
// failure the caller reports via RecordFailure (a policy or collection
// error). A bad primary reading is never served. After TripAfter
// consecutive bad signals the breaker opens and the fallback serves; after
// Cooldown estimates it half-opens and probes the primary, serving each
// good probe; HalfOpenProbes consecutive good probes close it, one bad
// probe re-opens it. When the fallback's reading is unusable too, the
// breaker reports zero garbage rather than poison the controller; the
// policy's interval clamp bounds the result. All counting is in
// observations, never wall-clock, so the breaker is deterministic for a
// given request sequence.
//
// Both estimators observe every collection regardless of state, so the
// fallback is always warm when the breaker trips.
type Breaker struct {
	cfg      BreakerConfig
	primary  Estimator
	fallback Estimator

	state        BreakerState
	consecBad    int
	cooldownLeft int
	probesGood   int

	trips      uint64
	recoveries uint64
	badSignals uint64
}

// NewBreaker wraps primary with a breaker that degrades to fallback.
func NewBreaker(cfg BreakerConfig, primary, fallback Estimator) (*Breaker, error) {
	if primary == nil || fallback == nil {
		return nil, fmt.Errorf("core: breaker requires both a primary and a fallback estimator")
	}
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	return &Breaker{cfg: cfg, primary: primary, fallback: fallback}, nil
}

// Name implements Estimator.
func (b *Breaker) Name() string {
	return fmt.Sprintf("breaker(%s->%s)", b.primary.Name(), b.fallback.Name())
}

// State returns the breaker's position.
func (b *Breaker) State() BreakerState { return b.state }

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() uint64 { return b.trips }

// Recoveries returns how many times the breaker has closed again after a
// trip.
func (b *Breaker) Recoveries() uint64 { return b.recoveries }

// BadSignals returns the cumulative bad-signal count, estimator-produced
// and reported alike.
func (b *Breaker) BadSignals() uint64 { return b.badSignals }

// RecordFailure reports an external failure (a collection or policy error
// attributable to the estimator's guidance). It counts as one bad signal:
// enough of them trips the breaker even if the primary's raw numbers look
// plausible.
func (b *Breaker) RecordFailure() {
	b.badSignals++
	switch b.state {
	case BreakerClosed:
		b.consecBad++
		if b.consecBad >= b.cfg.TripAfter {
			b.open()
		}
	case BreakerHalfOpen:
		// A failure during probing re-opens immediately.
		b.open()
	case BreakerOpen:
		// Already open; nothing to do.
	}
}

func (b *Breaker) open() {
	b.state = BreakerOpen
	b.cooldownLeft = b.cfg.Cooldown
	b.consecBad = 0
	b.probesGood = 0
	b.trips++
}

// ObserveCollection implements Estimator: both estimators see every
// collection so the fallback is warm whenever the breaker needs it.
func (b *Breaker) ObserveCollection(h HeapState, res gc.CollectionResult) {
	b.primary.ObserveCollection(h, res)
	b.fallback.ObserveCollection(h, res)
}

// usableSignal reports whether v is a physically meaningful garbage estimate
// for the database state h.
func usableSignal(v float64, h HeapState) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return false
	}
	if db := float64(h.DatabaseBytes()); db > 0 && v > db {
		return false
	}
	return true
}

// fallbackEstimate serves the fallback's reading, or zero when that is
// unusable too.
func (b *Breaker) fallbackEstimate(h HeapState) float64 {
	if f := b.fallback.EstimateGarbage(h); usableSignal(f, h) {
		return f
	}
	return 0
}

// EstimateGarbage implements Estimator, advancing the breaker state
// machine on each consultation.
func (b *Breaker) EstimateGarbage(h HeapState) float64 {
	pv := b.primary.EstimateGarbage(h)
	good := usableSignal(pv, h)
	if !good {
		b.badSignals++
	}
	switch b.state {
	case BreakerClosed:
		if good {
			b.consecBad = 0
			return pv
		}
		b.consecBad++
		if b.consecBad >= b.cfg.TripAfter {
			b.open()
		}
		return b.fallbackEstimate(h)
	case BreakerOpen:
		b.cooldownLeft--
		if b.cooldownLeft <= 0 {
			b.state = BreakerHalfOpen
			b.probesGood = 0
		}
		return b.fallbackEstimate(h)
	default: // BreakerHalfOpen
		if !good {
			b.open()
			return b.fallbackEstimate(h)
		}
		b.probesGood++
		if b.probesGood >= b.cfg.HalfOpenProbes {
			b.state = BreakerClosed
			b.consecBad = 0
			b.recoveries++
		}
		return pv
	}
}
