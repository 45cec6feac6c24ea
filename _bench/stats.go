package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by nearest rank (xs need not be
// sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailLevels are the percentiles a tail is reported at, highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tail returns the highest percentile of xs that has at least ten
// samples beyond it, with a label naming it and the sample count.
func tail(xs []float64) (float64, string) {
	for _, q := range tailLevels {
		if float64(len(xs))*(1-q) >= 10 {
			return quantile(xs, q), fmt.Sprintf("p%g of n=%d", q*100, len(xs))
		}
	}
	return quantile(xs, 1), fmt.Sprintf("max of n=%d", len(xs))
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime returns this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the machine-wide CPU counters of /proc/stat: the
// ticks the hypervisor gave to other guests (steal) and all ticks.
func cpuTicks() (steal, total float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, false
		}
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total, true
}
