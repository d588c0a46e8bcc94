package scan

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// Limiter is a token-bucket rate limiter gating probe transmission, the
// politeness mechanism every responsible scanner runs (the paper's whole
// point is sending fewer probes; the limiter makes the ones we do send
// smooth instead of bursty).
//
// Scanner workers do not call it per probe: each takes a grant of k
// tokens per call (see share) and spends it without the lock.
type Limiter struct {
	mu    sync.Mutex
	rate  float64 // tokens per second
	burst float64
	// fill caps the bucket. It is burst, less the tokens that workers
	// sharing the bucket may hold unspent (see share).
	fill   float64
	tokens float64
	last   time.Time
	now    func() time.Time // injectable clock for tests
	// sleep blocks for d or until ctx is canceled. Injectable so Wait's
	// blocking path is testable without real timers; the default sleeps
	// on a time.Timer.
	sleep func(ctx context.Context, d time.Duration) error
}

// NewLimiter builds a limiter refilling at rate tokens/second with the
// given burst capacity. The bucket starts full. The rate must be a
// finite positive number: NaN and ±Inf are rejected explicitly, since
// `NaN <= 0` is false and a NaN rate would otherwise pass validation and
// poison every sleep computation in Wait.
func NewLimiter(rate float64, burst int) (*Limiter, error) {
	if math.IsNaN(rate) || math.IsInf(rate, 0) || rate <= 0 || burst <= 0 {
		return nil, fmt.Errorf("scan: limiter needs finite positive rate and burst, got rate %v burst %d", rate, burst)
	}
	return &Limiter{
		rate:   rate,
		burst:  float64(burst),
		fill:   float64(burst),
		tokens: float64(burst),
		now:    time.Now,
		sleep:  timerSleep,
	}, nil
}

// timerSleep is the production sleeper: a real timer racing the context.
func timerSleep(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// SetRate retargets the refill rate mid-flight (the backoff hook).
// Tokens accrued at the old rate are credited first. Waiters already
// sleeping keep their old-rate reservation; only later waiters see the
// new rate.
func (l *Limiter) SetRate(rate float64) error {
	if math.IsNaN(rate) || math.IsInf(rate, 0) || rate <= 0 {
		return fmt.Errorf("scan: limiter rate must be finite and positive, got %v", rate)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refill()
	l.rate = rate
	return nil
}

// Rate returns the current refill rate in tokens per second.
func (l *Limiter) Rate() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rate
}

func (l *Limiter) refill() {
	now := l.now()
	if !l.last.IsZero() {
		l.tokens += now.Sub(l.last).Seconds() * l.rate
		if l.tokens > l.fill {
			l.tokens = l.fill
		}
	}
	l.last = now
}

// Allow consumes one token if available, without blocking.
func (l *Limiter) Allow() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refill()
	if l.tokens >= 1 {
		l.tokens--
		return true
	}
	return false
}

// grantSpan bounds how much of the rate one grant may cover: a worker
// never holds more than about 50 µs of the global rate unspent.
const grantSpan = 50 * time.Microsecond

// share sizes the grant each of workers takes per limiter call:
// k = clamp(⌊rate·grantSpan⌋, 1, ⌊burst/2W⌋). It lowers the fill cap to
// burst − W·(k−1) (a worker spends the first token of a grant at once,
// so it holds at most k−1 between calls). Tokens in the bucket plus
// tokens held unspent then never exceed burst, and probes sent in any
// window stay ≤ rate·window + burst, the bound of per-probe Wait. Below
// about 40 K/s, k = 1 and nothing changes. Call it before the bucket is
// shared.
func (l *Limiter) share(workers int) int {
	k := math.Min(math.Floor(l.rate*grantSpan.Seconds()), math.Floor(l.burst/float64(2*workers)))
	if k < 1 {
		k = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fill = l.burst - float64(workers)*(k-1)
	if l.tokens > l.fill {
		l.tokens = l.fill
	}
	return int(k)
}

// Wait blocks until a token is available or the context is canceled.
//
// Waiters are serialized by reservation, not by sleep-and-retry: a
// blocked waiter takes its token immediately — driving the bucket
// negative — and sleeps exactly once, until the refill covers its debt.
// Concurrent waiters therefore reserve strictly later slots and wake one
// at a time in reservation order; there is no thundering herd of workers
// waking together to fight over a single refilled token. A canceled wait
// returns its reserved token to the bucket.
func (l *Limiter) Wait(ctx context.Context) error {
	return l.take(ctx, 1)
}

// take is Wait for n tokens at once: one lock, one clock read, one
// reservation. A canceled take returns all n.
func (l *Limiter) take(ctx context.Context, n int) error {
	l.mu.Lock()
	l.refill()
	l.tokens -= float64(n)
	if l.tokens >= 0 {
		l.mu.Unlock()
		return nil
	}
	// The bucket is in debt: this waiter's tokens arrive once the refill
	// has produced -tokens more, i.e. after -tokens/rate seconds.
	need := -l.tokens / l.rate
	l.mu.Unlock()

	d := time.Duration(need * float64(time.Second))
	if d < time.Microsecond {
		d = time.Microsecond
	}
	if err := l.sleep(ctx, d); err != nil {
		// Return the reservation so later waiters shift earlier.
		l.give(n)
		return err
	}
	return nil
}

// give returns n unspent tokens to the bucket, up to its fill cap.
func (l *Limiter) give(n int) {
	l.mu.Lock()
	l.tokens += float64(n)
	if l.tokens > l.fill {
		l.tokens = l.fill
	}
	l.mu.Unlock()
}
