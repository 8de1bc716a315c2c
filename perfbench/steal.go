package main

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
	"strings"
	"time"
)

// userHZ is the unit of the /proc/stat counters: Linux exports them in
// USER_HZ, which is 100 on every architecture Go supports.
const userHZ = 100

// parseSteal reads the host steal time out of /proc/stat: the time, summed
// over this machine's CPUs, that a CPU wanted to run while the hypervisor ran
// another guest. It also returns how many CPUs the sum is over.
func parseSteal(stat []byte) (steal time.Duration, cpus int, ok bool) {
	sc := bufio.NewScanner(bytes.NewReader(stat))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 0:
		case f[0] == "cpu":
			// cpu user nice system idle iowait irq softirq steal ...
			if len(f) < 9 {
				return 0, 0, false
			}
			ticks, err := strconv.ParseUint(f[8], 10, 64)
			if err != nil {
				return 0, 0, false
			}
			steal, ok = time.Duration(ticks)*time.Second/userHZ, true
		case strings.HasPrefix(f[0], "cpu"):
			cpus++
		}
	}
	return steal, cpus, ok && cpus > 0
}

func readSteal() (time.Duration, int, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	return parseSteal(b)
}

// stopwatch times an interval on the wall clock and notes the host steal
// time around it.
type stopwatch struct {
	start time.Time
	steal time.Duration
	cpus  int
	ok    bool
}

func startWatch() stopwatch {
	s, n, ok := readSteal()
	return stopwatch{start: time.Now(), steal: s, cpus: n, ok: ok}
}

// interval is a timed stretch of wall-clock time and the time the hypervisor
// stole from each of this machine's CPUs during it, on average.
type interval struct {
	wall, stolen time.Duration
}

func (w stopwatch) stop() interval {
	iv := interval{wall: time.Since(w.start)}
	if s, _, ok := readSteal(); w.ok && ok && s > w.steal {
		iv.stolen = (s - w.steal) / time.Duration(w.cpus)
	}
	return iv
}

// net is the wall time less the steal per CPU: how long the interval would
// have taken on this machine had the hypervisor not run other guests on its
// CPUs. That is exact for work that keeps every CPU busy and an estimate for
// work that does not. Where the 10 ms steal ticks outweigh a short interval,
// the wall time is kept.
func (iv interval) net() time.Duration {
	if iv.stolen >= iv.wall {
		return iv.wall
	}
	return iv.wall - iv.stolen
}

// scale is net over wall, the factor that takes a stretch of wall time inside
// the interval to its net share.
func (iv interval) scale() float64 {
	if iv.wall <= 0 {
		return 1
	}
	return float64(iv.net()) / float64(iv.wall)
}

// share is the fraction of the interval stolen from each CPU.
func (iv interval) share() float64 {
	return 1 - iv.scale()
}
