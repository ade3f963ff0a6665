package main

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// loadStep is the outcome of one open-loop run at a fixed rate.
type loadStep struct {
	rate   float64
	sent   int
	failed int
	lat    []float64 // µs from due time to response; +Inf for a failure
	late   []float64 // µs from due time to send (generator lateness)
}

func (s loadStep) p50() float64 { return percentile(s.lat, 50) }

func (s loadStep) p99() float64 { return s.tail(99, 4) }

// tail splits the step into windows equal parts (in send order) and
// returns the median of each part's pth percentile latency. A single
// host stall inflates one part's tail but not the median; a tail that
// holds across the step, as under overload, moves it.
func (s loadStep) tail(p float64, windows int) float64 {
	q := make([]float64, 0, windows)
	for k := 0; k < windows; k++ {
		q = append(q, percentile(s.lat[len(s.lat)*k/windows:len(s.lat)*(k+1)/windows], p))
	}
	return median(q)
}

// backlogUs is the median lateness over the last quarter of the step:
// when the system cannot keep up, sends fall further behind schedule as
// the step goes on, so this grows with the backlog.
func (s loadStep) backlogUs() float64 { return median(s.late[len(s.late)*3/4:]) }

// meets reports whether the step held the latency limit: no failed or
// refused request, p99 from due time within the limit, and no backlog
// left growing at the end.
func (s loadStep) meets(limitUs float64) bool {
	return s.failed == 0 && s.p99() <= limitUs && s.backlogUs() <= limitUs
}

// openLoop sends requests on a fixed schedule: request i is due at
// start + i/rate, whatever happened to earlier requests. At most conns
// requests are in flight; each sender takes the next due request, waits
// for its due time, and sends it, so a stall makes later requests late
// and that lateness counts in their latency. send(c, i, due) issues
// request i on connection c. An error means the generator itself failed.
func openLoop(rate float64, dur time.Duration, conns int, send func(c, i int, due time.Time) error) (loadStep, error) {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	st := loadStep{rate: rate, sent: n, lat: make([]float64, n), late: make([]float64, n)}
	pacers := make([]*pacer, conns)
	for c := range pacers {
		p, err := newPacer()
		if err != nil {
			return st, err
		}
		defer p.close()
		pacers[c] = p
	}
	var next atomic.Int64
	var failed atomic.Int64
	errs := make([]error, conns)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if err := pacers[c].sleepUntil(due); err != nil {
					errs[c] = err
					return
				}
				sent := time.Now()
				err := send(c, i, due)
				done := time.Now()
				st.late[i] = micros(sent.Sub(due))
				st.lat[i] = micros(done.Sub(due))
				if err != nil {
					st.lat[i] = math.Inf(1)
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	st.failed = int(failed.Load())
	return st, errors.Join(errs...)
}

// saturation is the outcome of a closed loop: every connection sends its
// next request as soon as the previous one returns.
type saturation struct {
	sent, failed int
	lat          []float64 // µs per request, in completion order
	rate         float64   // completions per second, median of eight windows
}

// closedLoop keeps conns requests in flight for dur and measures the
// completion rate the system sustains, as the median over eight equal
// time windows so that one host stall moves one window only.
func closedLoop(dur time.Duration, conns int, send func(c, i int) error) saturation {
	const windows = 8
	var (
		mu     sync.Mutex
		sat    saturation
		counts [windows]int
		next   atomic.Int64
		wg     sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if t0.Sub(start) >= dur {
					return
				}
				err := send(c, int(next.Add(1)-1))
				t1 := time.Now()
				mu.Lock()
				sat.sent++
				if err != nil {
					sat.failed++
				} else {
					sat.lat = append(sat.lat, micros(t1.Sub(t0)))
					if w := int(t1.Sub(start) * windows / dur); w < windows {
						counts[w]++
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	rates := make([]float64, windows)
	for w, n := range counts {
		rates[w] = float64(n) / (dur.Seconds() / windows)
	}
	sat.rate = median(rates)
	return sat
}

// ladder finds the highest rate whose step meets the latency limit. It
// climbs from base by a factor of 1.25 until a rate fails, then bisects
// (geometrically) between the last passing and the first failing rate.
// A failing step is run once more before the rate counts as failed, so
// one host stall does not end the climb; overload fails both attempts.
// It returns the best passing rate (0 when even base fails) and every
// step run, in order.
func ladder(base, limitUs float64, coarse, fine int, step func(rate float64) (loadStep, error)) (float64, []loadStep, error) {
	var steps []loadStep
	var stepErr error
	meets := func(r float64) bool {
		for attempt := 0; attempt < 2 && stepErr == nil; attempt++ {
			s, err := step(r)
			if err != nil {
				stepErr = err
				return false
			}
			steps = append(steps, s)
			if s.meets(limitUs) {
				return true
			}
		}
		return false
	}
	pass, fail := 0.0, 0.0
	for r, k := base, 0; k < coarse; r, k = r*1.25, k+1 {
		if !meets(r) {
			fail = r
			break
		}
		pass = r
	}
	if pass == 0 || fail == 0 {
		return pass, steps, stepErr
	}
	for k := 0; k < fine; k++ {
		mid := math.Sqrt(pass * fail)
		if meets(mid) {
			pass = mid
		} else {
			fail = mid
		}
	}
	return pass, steps, stepErr
}
