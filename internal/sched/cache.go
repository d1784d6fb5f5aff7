package sched

import "sync/atomic"

// PlanCache remembers nothing: it only counts InvalidateGroup calls.
//
// Deprecated: nothing consults it. The control-plane benchmark builds one
// (benchmark/live.go newScheduler, benchmark/simmix.go runOnce), reads its
// Stats (benchmark/liverun.go readMeters) and checks that the coordinator
// counts on it (benchmark/meter_test.go TestCoordinatorResolvesHandlesThroughMeter).
type PlanCache struct{ invalidations atomic.Uint64 }

// NewPlanCache returns a handle with zero counts.
//
// Deprecated: benchmark/live.go newScheduler and benchmark/simmix.go runOnce call it.
func NewPlanCache() *PlanCache { return new(PlanCache) }

// CacheStats is a PlanCache's counts; Hits and Misses are always zero.
//
// Deprecated: benchmark/liverun.go readMeters reads it.
type CacheStats struct{ Hits, Misses, Invalidations uint64 }

// Stats returns the handle's counts.
func (c *PlanCache) Stats() CacheStats { return CacheStats{Invalidations: c.invalidations.Load()} }

// InvalidateGroup counts one call; a nil handle ignores it.
func (c *PlanCache) InvalidateGroup(string) {
	if c != nil {
		c.invalidations.Add(1)
	}
}

// Deprecated: benchmark/meter.go meteredSched.PlanCache forwards it.
func (e EchelonMADD) PlanCache() *PlanCache { return e.Cache }

// Deprecated: benchmark/meter.go meteredSched.PlanCache forwards it.
func (d *DeltaEchelon) PlanCache() *PlanCache { return d.inner.Cache }
