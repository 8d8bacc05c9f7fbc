package server

import "odbgc/internal/core"

// The estimator circuit breaker lives in package core; these aliases keep
// the serving API's names for it.
type (
	Breaker       = core.Breaker
	BreakerConfig = core.BreakerConfig
)

// NewBreaker is core.NewBreaker.
func NewBreaker(cfg BreakerConfig, primary, fallback core.Estimator) (*Breaker, error) {
	return core.NewBreaker(cfg, primary, fallback)
}
