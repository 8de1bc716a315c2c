package fault

import (
	"testing"
	"time"
)

func TestBackoffDeterministic(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: time.Second, Key: "job1/fig2"}
	for attempt := 0; attempt < 12; attempt++ {
		first := b.Delay(attempt)
		if again := b.Delay(attempt); again != first {
			t.Fatalf("attempt %d not deterministic: %v then %v", attempt, first, again)
		}
	}
}

func TestBackoffEqualJitterBounds(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: time.Second, Key: "k"}
	for attempt := 0; attempt < 16; attempt++ {
		step := b.Base << attempt
		if step <= 0 || step > b.Max {
			step = b.Max
		}
		d := b.Delay(attempt)
		if d < step/2 || d > step {
			t.Fatalf("attempt %d delay %v outside [%v, %v]", attempt, d, step/2, step)
		}
	}
}

func TestBackoffGrowsThenCaps(t *testing.T) {
	b := Backoff{Base: time.Millisecond, Max: 8 * time.Millisecond, Key: "k"}
	// Minimum waits double until the cap: 0.5ms, 1ms, 2ms, 4ms, 4ms, 4ms...
	prevMin := time.Duration(0)
	for attempt := 0; attempt < 10; attempt++ {
		d := b.Delay(attempt)
		if d > b.Max {
			t.Fatalf("attempt %d delay %v exceeds cap %v", attempt, d, b.Max)
		}
		min := d // equal jitter: min possible is step/2, actual >= that
		if attempt <= 3 && min <= prevMin {
			t.Fatalf("attempt %d delay %v did not grow past %v", attempt, d, prevMin)
		}
		prevMin = d
	}
}

func TestBackoffKeysDecorrelate(t *testing.T) {
	a := Backoff{Base: 100 * time.Millisecond, Max: time.Minute, Key: "shard-a"}
	c := a
	c.Key = "shard-c"
	same := 0
	for attempt := 0; attempt < 16; attempt++ {
		if a.Delay(attempt) == c.Delay(attempt) {
			same++
		}
	}
	if same == 16 {
		t.Fatal("distinct keys wait in lockstep")
	}
}

func TestBackoffZeroAndNegative(t *testing.T) {
	var zero Backoff
	if d := zero.Delay(3); d != 0 {
		t.Fatalf("zero backoff delays %v", d)
	}
	b := Backoff{Base: time.Millisecond, Max: time.Second}
	if d := b.Delay(-1); d != 0 {
		t.Fatalf("negative attempt delays %v", d)
	}
}

func TestBackoffNoOverflow(t *testing.T) {
	b := Backoff{Base: time.Hour, Max: 0, Key: "k"}
	// With no cap the shift saturates instead of wrapping negative.
	for attempt := 0; attempt < 80; attempt++ {
		if d := b.Delay(attempt); d < 0 {
			t.Fatalf("attempt %d overflowed to %v", attempt, d)
		}
	}
}
