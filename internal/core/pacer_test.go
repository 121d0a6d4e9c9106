package core

import (
	"math"
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/simclock"
)

// pacedRate issues n pace() calls against p and returns the achieved rate
// in packets per second of virtual time.
func pacedRate(v *simclock.Virtual, p *pacer, n int) float64 {
	start := v.Now()
	for i := 0; i < n; i++ {
		p.pace(nil)
	}
	elapsed := v.Now().Sub(start)
	if elapsed <= 0 {
		return math.Inf(1)
	}
	return float64(n) / elapsed.Seconds()
}

// TestPacerRate: the achieved rate must be within 1% of Config.PPS on the
// virtual clock, including rates that don't divide evenly into the ~5 ms
// batch quantum.
func TestPacerRate(t *testing.T) {
	for _, pps := range []int{50, 333, 9_999, 50_000, 100_000, 123_456} {
		v := simclock.NewVirtual(time.Unix(0, 0))
		v.AddActor()
		p := newPacer(v, pps)
		rate := pacedRate(v, &p, 2*pps) // two seconds' worth of probes
		v.DoneActor()
		if err := math.Abs(rate-float64(pps)) / float64(pps); err > 0.01 {
			t.Errorf("pps=%d: achieved %.1f pps (%.2f%% off target)", pps, rate, 100*err)
		}
	}
}

// oversleeper models scheduler overshoot: every sleep runs 10% long. The
// old relative pacer (sleep a fixed interval per batch) accumulated that
// overshoot as rate drift — 10% oversleep meant ~9% under the target rate.
// Absolute-deadline pacing must absorb it.
type oversleeper struct {
	simclock.Clock
}

func (o oversleeper) Sleep(d time.Duration) { o.Clock.Sleep(d + d/10) }

func TestPacerAbsorbsOversleep(t *testing.T) {
	const pps = 50_000
	v := simclock.NewVirtual(time.Unix(0, 0))
	v.AddActor()
	defer v.DoneActor()
	p := newPacer(oversleeper{v}, pps)
	start := v.Now()
	const probes = 10 * pps
	for i := 0; i < probes; i++ {
		p.pace(nil)
	}
	rate := float64(probes) / v.Now().Sub(start).Seconds()
	if err := math.Abs(rate-pps) / pps; err > 0.01 {
		t.Fatalf("achieved %.1f pps under 10%% oversleep, want %d ±1%%", rate, pps)
	}
}

// TestPacerResetDropsIdleBudget: idle time (round gaps, drain waits) must
// not be banked as sending budget; after reset, a second's worth of
// probes still takes about a second.
func TestPacerResetDropsIdleBudget(t *testing.T) {
	const pps = 50_000
	v := simclock.NewVirtual(time.Unix(0, 0))
	v.AddActor()
	defer v.DoneActor()
	p := newPacer(v, pps)
	// Anchor the pacer with one full batch, then sit out a round gap.
	for i := 0; i < p.batch; i++ {
		p.pace(nil)
	}
	v.Sleep(time.Second)
	p.reset()
	start := v.Now()
	for i := 0; i < pps; i++ {
		p.pace(nil)
	}
	if elapsed := v.Now().Sub(start); elapsed < 990*time.Millisecond {
		t.Fatalf("1s of probes paced in %v after idle+reset: idle time was repaid as a burst", elapsed)
	}
}

// TestPacerUnthrottled: pps <= 0 must never sleep.
func TestPacerUnthrottled(t *testing.T) {
	v := simclock.NewVirtual(time.Unix(0, 0))
	v.AddActor()
	defer v.DoneActor()
	p := newPacer(v, 0)
	start := v.Now()
	for i := 0; i < 100_000; i++ {
		p.pace(nil)
	}
	if elapsed := v.Now().Sub(start); elapsed != 0 {
		t.Fatalf("unthrottled pacer advanced the clock by %v", elapsed)
	}
}
