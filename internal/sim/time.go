// Package sim provides the deterministic simulation kernel used by both the
// standalone and timing performance models: an integer time base that
// represents the 21364's two clock domains exactly, an event scheduler, and
// a seedable random number generator.
//
// The time base is chosen so that both clocks of the Alpha 21364 system are
// integral: 1 tick = 1/12 ns. The 1.2 GHz router clock has a period of
// 10 ticks and the 0.8 GHz interconnect clock a period of 15 ticks. The
// doubled-frequency router of the paper's Figure 11a scaling study
// (2.4 GHz) has a period of 5 ticks.
package sim

import "fmt"

// Ticks is simulated time. One tick is 1/12 ns.
type Ticks int64

// Clock periods for the Alpha 21364 system, in ticks.
const (
	// TicksPerNS is the number of ticks in one nanosecond.
	TicksPerNS Ticks = 12
	// RouterPeriod is the 1.2 GHz router-core clock period (0.8333 ns).
	RouterPeriod Ticks = 10
	// FastRouterPeriod is the 2.4 GHz clock of the Figure 11a scaling study.
	FastRouterPeriod Ticks = 5
	// LinkPeriod is the 0.8 GHz inter-router link clock period (1.25 ns).
	LinkPeriod Ticks = 15
)

// NS converts a tick count to nanoseconds.
func (t Ticks) NS() float64 { return float64(t) / float64(TicksPerNS) }

// FromNS converts nanoseconds to ticks, rounding to the nearest tick.
func FromNS(ns float64) Ticks {
	if ns < 0 {
		return 0
	}
	return Ticks(ns*float64(TicksPerNS) + 0.5)
}

func (t Ticks) String() string { return fmt.Sprintf("%.3fns", t.NS()) }
