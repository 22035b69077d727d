package autoscale

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestDemandForecastBasics(t *testing.T) {
	d := NewDemand(0.3)
	if d.Forecast() != 0 || d.Functions() != 0 {
		t.Fatal("fresh tracker must forecast 0")
	}
	for i := 0; i < 20; i++ {
		d.Observe("a", time.Duration(i)*50*time.Millisecond)
	}
	d.Advance(time.Second)
	if f := d.Forecast(); f != 20 {
		t.Fatalf("forecast = %v, want 20 (20 arrivals / 1s)", f)
	}
	// An idle tick decays the EWMA but the forecast stays the max of
	// EWMA and last rate, so it falls smoothly, never cliffs.
	d.Advance(2 * time.Second)
	if f := d.Forecast(); f <= 0 || f >= 20 {
		t.Fatalf("decayed forecast = %v, want in (0, 20)", f)
	}
	if idle := d.IdleFor(3 * time.Second); idle != 3*time.Second-950*time.Millisecond {
		t.Fatalf("IdleFor = %v", idle)
	}
}

// Property (satellite 3): the forecast is monotone in observed demand —
// scaling every tick's arrival count up by an integer factor never
// lowers the forecast, for any schedule shape.
func TestForecastMonotoneInDemand(t *testing.T) {
	prop := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%4) + 1 // scale factor 1..4
		ticks := 8 + rng.Intn(8)
		counts := make([]int, ticks)
		for i := range counts {
			counts[i] = rng.Intn(40)
		}
		run := func(mult int) float64 {
			d := NewDemand(0.3)
			now := time.Duration(0)
			for _, n := range counts {
				for j := 0; j < n*mult; j++ {
					d.Observe("f", now+time.Duration(j)*time.Millisecond)
				}
				now += time.Second
				d.Advance(now)
			}
			return d.Forecast()
		}
		base, scaled := run(1), run(k)
		return scaled >= base
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property (satellite 3): hysteresis never oscillates on constant
// load — once the controller has both scaled up and settled, a steady
// arrival rate never produces scale directions that alternate. We
// assert the stronger form: over a long constant-rate run the decision
// stream never contains both an up (provision/reclaim) and a down
// (drain) action.
func TestHysteresisNoOscillationOnConstantLoad(t *testing.T) {
	prop := func(rateRaw uint16, initRaw, maxRaw uint8) bool {
		rate := int(rateRaw%200) + 1 // arrivals per second
		max := int(maxRaw%16) + 1
		initial := int(initRaw) % (max + 1)
		cfg := Config{
			MinWorkers: 1, MaxWorkers: max, TargetPerWorker: 10,
			EvalInterval: time.Second, ScaleToZeroAfter: time.Hour,
		}
		c, err := New(cfg, initial)
		if err != nil {
			return false
		}
		ups, downs := 0, 0
		now := time.Duration(0)
		for tick := 0; tick < 60; tick++ {
			for j := 0; j < rate; j++ {
				c.Observe("f", now+time.Duration(j)*time.Second/time.Duration(rate+1))
			}
			now += time.Second
			for _, d := range c.Tick(now) {
				switch d.Action {
				case ActionProvision, ActionReclaim:
					ups++
				case ActionDrain:
					downs++
				}
			}
		}
		return ups == 0 || downs == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// burstSchedule builds a seeded random bursty arrival schedule: quiet
// stretches, Poisson-ish trickles, and dense bursts over a few
// functions.
func burstSchedule(seed int64, ticks int) [][]struct {
	fn  string
	off time.Duration
} {
	rng := rand.New(rand.NewSource(seed))
	fns := []string{"fib", "echo", "s3upload"}
	out := make([][]struct {
		fn  string
		off time.Duration
	}, ticks)
	for i := range out {
		var n int
		switch rng.Intn(4) {
		case 0: // quiet
			n = 0
		case 1, 2: // trickle
			n = rng.Intn(8)
		case 3: // burst
			n = 40 + rng.Intn(80)
		}
		base := time.Duration(i) * time.Second
		for j := 0; j < n; j++ {
			out[i] = append(out[i], struct {
				fn  string
				off time.Duration
			}{fns[rng.Intn(len(fns))], base + time.Duration(rng.Int63n(int64(time.Second)))})
		}
	}
	return out
}

// runSchedule replays a burst schedule through a fresh controller and
// fingerprints the full decision sequence.
func runSchedule(t *testing.T, seed int64) string {
	t.Helper()
	cfg := Config{
		MinWorkers: 0, MaxWorkers: 12, TargetPerWorker: 10,
		EvalInterval: time.Second, Warmup: 500 * time.Millisecond,
		DrainBudget: 2 * time.Second, ScaleDownAfter: 2,
		ScaleToZeroAfter: 4 * time.Second,
	}
	c, err := New(cfg, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var lines []string
	for i, tick := range burstSchedule(seed, 40) {
		for _, a := range tick {
			c.Observe(a.fn, a.off)
			for _, d := range c.Wake(a.off) {
				lines = append(lines, d.String())
			}
		}
		for _, d := range c.Tick(time.Duration(i+1) * time.Second) {
			lines = append(lines, d.String())
		}
	}
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:8])
}

// Satellite 3: seeded burst-schedule determinism corpus (PR 6 style).
// Every seed must reproduce its committed decision-sequence
// fingerprint bit-for-bit; regenerate with -run TestBurstCorpus -v
// after an intentional control-loop change.
func TestBurstCorpusDeterminism(t *testing.T) {
	golden := map[int64]string{
		1: "9bd45ad7f3c7c5b9",
		2: "0ec77a7ae8864739",
		3: "5bb5dd8b010257c0",
		4: "6de094e3520471f8",
		5: "421ace66ca5c1ec9",
	}
	for seed, want := range golden {
		got := runSchedule(t, seed)
		if again := runSchedule(t, seed); again != got {
			t.Fatalf("seed %d: nondeterministic (%s vs %s)", seed, got, again)
		}
		t.Logf("seed %d fingerprint %s", seed, got)
		if got != want {
			t.Errorf("seed %d: fingerprint %s, want %s", seed, got, want)
		}
	}
}

// The decision fingerprint itself must be stable across struct reorder
// (guards the corpus encoding).
func TestDecisionFingerprintFormat(t *testing.T) {
	d := Decision{At: 2 * time.Second, Action: ActionDrain, Worker: 7, Target: 1, Forecast: 3.5}
	if got, want := fmt.Sprint(d), "2000ms drain w7 target=1"; got != want {
		t.Fatalf("fingerprint %q, want %q", got, want)
	}
}
