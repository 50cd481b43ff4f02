// SLO tracking on top of the windowed captures: each cadence tick closes a
// window, and each closed window with traffic is judged against every
// configured objective. Judgments use the window's own bucket deltas — the
// p99 of the last second, not of the process lifetime — so a breach means
// "users are hurting now", and recovery shows the moment it happens rather
// than after the lifetime histogram dilutes it.
package tsdb

import (
	"time"

	"github.com/asplos17/nr/internal/histogram"
	"github.com/asplos17/nr/internal/obs"
)

// DefaultBudget is the error budget when an SLO leaves Budget zero: the
// fraction of windows allowed to breach (1% — about one bad second every
// hundred).
const DefaultBudget = 0.01

// SLO is one latency objective: per-window tail bounds for one op class.
// Zero thresholds are not checked (set only P99 to track just p99).
type SLO struct {
	Class obs.OpClass   `json:"class"`
	P99   time.Duration `json:"p99"`
	P999  time.Duration `json:"p999"`
	// Budget is the allowed fraction of breached windows (default
	// DefaultBudget). BudgetBurn reports breach-fraction / Budget.
	Budget float64 `json:"budget"`
}

// SLOStatus is the tracker's view of one objective.
type SLOStatus struct {
	Class  string `json:"class"`
	P99Ns  int64  `json:"p99_ns"`
	P999Ns int64  `json:"p999_ns"`
	// CurrentP99Ns / CurrentP999Ns are the most recent judged window's
	// tails (0 before any window had traffic).
	CurrentP99Ns  int64 `json:"current_p99_ns"`
	CurrentP999Ns int64 `json:"current_p999_ns"`
	// Breached reports whether the most recent judged window breached.
	Breached bool `json:"breached"`
	// BreachedWindows / TotalWindows count judged windows (windows with no
	// traffic in the class are not judged).
	BreachedWindows uint64 `json:"breached_windows"`
	TotalWindows    uint64 `json:"total_windows"`
	// BudgetBurn is breach-fraction over budget: 1.0 means the budget is
	// exactly spent, above 1 it is overspent.
	BudgetBurn float64 `json:"budget_burn"`
	// LastBreach is when a window last breached (zero time if never).
	LastBreach time.Time `json:"last_breach,omitempty"`
}

// BreachEvent describes one SLO breach, delivered to Config.OnBreach
// (rate-limited). The nr layer chains it into the flight recorder's
// AutoDump so the seconds leading up to the breach are preserved.
type BreachEvent struct {
	When   time.Time `json:"when"`
	Status SLOStatus `json:"status"`
}

// sloState is the tracker's mutable state for one objective.
type sloState struct {
	slo           SLO
	breached      uint64
	total         uint64
	lastBreach    time.Time
	lastP99       time.Duration
	lastP999      time.Duration
	lastBreachedW bool
}

// checkSLOLocked judges the window (prev, cur) against every objective,
// returning the breach event to fire (rate-limited) if any objective
// breached. Caller holds c.mu.
func (c *Collector) checkSLOLocked(prev, cur *sample, now time.Time) (BreachEvent, bool) {
	var (
		ev   BreachEvent
		fire bool
	)
	for i := range c.slo {
		st := &c.slo[i]
		class := st.slo.Class
		if class >= obs.NumOpClasses {
			continue
		}
		ch, ph := &cur.cum.Latency[class], &prev.cum.Latency[class]
		if histogram.DeltaCount(ch, ph) == 0 {
			continue // no traffic: nothing to judge
		}
		st.total++
		st.lastP99 = time.Duration(histogram.DeltaPercentile(ch, ph, 99))
		st.lastP999 = time.Duration(histogram.DeltaPercentile(ch, ph, 99.9))
		breached := (st.slo.P99 > 0 && st.lastP99 > st.slo.P99) ||
			(st.slo.P999 > 0 && st.lastP999 > st.slo.P999)
		st.lastBreachedW = breached
		if !breached {
			continue
		}
		st.breached++
		st.lastBreach = now
		if !fire && now.Sub(c.lastFire) >= c.cfg.BreachMinInterval {
			c.lastFire = now
			ev = BreachEvent{When: now, Status: st.status()}
			fire = true
		}
	}
	return ev, fire
}

// status renders the state as an SLOStatus.
func (st *sloState) status() SLOStatus {
	s := SLOStatus{
		Class:           st.slo.Class.String(),
		P99Ns:           st.slo.P99.Nanoseconds(),
		P999Ns:          st.slo.P999.Nanoseconds(),
		CurrentP99Ns:    st.lastP99.Nanoseconds(),
		CurrentP999Ns:   st.lastP999.Nanoseconds(),
		Breached:        st.lastBreachedW,
		BreachedWindows: st.breached,
		TotalWindows:    st.total,
		LastBreach:      st.lastBreach,
	}
	if st.total > 0 {
		s.BudgetBurn = (float64(st.breached) / float64(st.total)) / st.slo.Budget
	}
	return s
}

// SLOStatuses reports every tracked objective's current status, in the
// order they were configured (nil when none are).
func (c *Collector) SLOStatuses() []SLOStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.slo) == 0 {
		return nil
	}
	out := make([]SLOStatus, len(c.slo))
	for i := range c.slo {
		out[i] = c.slo[i].status()
	}
	return out
}
