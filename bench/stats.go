package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (the estimator NumPy and R call type 7). xs need
// not be sorted; it is not modified. An empty sample gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method),
// so the spreads this program prints match the ones the run-to-run
// acceptance rule is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median (0 when
// the median is 0).
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// rssWindows records the resident-set high-water mark of consecutive
// windows of a phase. A window closes at the first operation boundary at
// least rssWindow after it opened, so an operation longer than that is
// a window of its own, and the mark is reset as each window opens.
type rssWindows struct {
	opened atomic.Int64 // when the current window opened, in Unix ns
	mu     sync.Mutex
	mb     []float64
	err    error
}

const rssWindow = 250 * time.Millisecond

func (w *rssWindows) open() {
	w.err = resetPeakRSS()
	w.opened.Store(time.Now().UnixNano())
}

// boundary marks the end of an operation; any goroutine may call it.
func (w *rssWindows) boundary() {
	now := time.Now().UnixNano()
	if now-w.opened.Load() < int64(rssWindow) {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if now-w.opened.Load() < int64(rssWindow) {
		return // another goroutine closed the window first
	}
	w.take()
	w.opened.Store(now)
}

func (w *rssWindows) take() {
	mb, err := peakRSSMB()
	if err == nil {
		err = resetPeakRSS()
	}
	if err != nil {
		w.err = err
		return
	}
	w.mb = append(w.mb, mb)
}

// close ends the phase and returns each window's peak in MB; the window
// still open counts only when none closed before it.
func (w *rssWindows) close() ([]float64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.mb) == 0 {
		w.take()
	}
	return w.mb, w.err
}

// resetPeakRSS resets the process's VmHWM to its current RSS.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	if _, err := f.Write([]byte("5")); err != nil {
		f.Close()
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return f.Close()
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// from /proc/self/status, in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb * 1024 / 1e6, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM line in /proc/self/status")
}
