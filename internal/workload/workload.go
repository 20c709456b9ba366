// Package workload is the client-browser emulator of §4.1: each emulated
// client runs sessions of interactions against the web server over one
// persistent HTTP connection, choosing the next interaction from a state
// transition matrix, thinking for negative-exponentially distributed times
// between interactions, and fetching the images embedded in each page. The
// run is split into ramp-up, measurement and ramp-down phases; only
// completions inside the measurement window count (§4.5).
package workload

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datagen"
	"repro/internal/httpd"
	"repro/internal/httpd/httpclient"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Request is one interaction's HTTP request.
type Request struct {
	Method      string
	Path        string
	Body        string
	ContentType string
}

// Interaction is one of a site's interaction types.
type Interaction struct {
	Name string
	// Build creates a concrete request with randomized parameters.
	Build func(g *datagen.Gen) Request
}

// Profile describes a site to drive: its interactions and named mixes.
type Profile struct {
	Name         string
	Interactions []Interaction
	// Mixes maps a mix name to per-interaction probabilities. Each row of
	// the state transition matrix equals the mix distribution (the
	// memoryless matrix preserving the paper's mix ratios; see DESIGN.md).
	Mixes map[string][]float64
}

// Config controls a run. Times are real durations — the emulator drives a
// real server, so tests scale them down from TPC-W's 7 s / 15 min.
type Config struct {
	Clients     int
	Mix         string
	ThinkMean   time.Duration // TPC-W: 7s, exponential
	SessionMean time.Duration // TPC-W: 15min, exponential
	RampUp      time.Duration
	Measure     time.Duration
	RampDown    time.Duration
	Seed        int64
	FetchImages bool
	// Timeout bounds one HTTP round trip.
	Timeout time.Duration
	// OnMeasureStart / OnMeasureEnd run as the measurement window opens
	// and closes — core.Lab.Run uses them to snapshot server telemetry
	// over exactly the measured interval, excluding ramp phases.
	OnMeasureStart func()
	OnMeasureEnd   func()
}

func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.ThinkMean <= 0 {
		c.ThinkMean = 50 * time.Millisecond
	}
	if c.SessionMean <= 0 {
		c.SessionMean = 100 * c.ThinkMean
	}
	if c.Measure <= 0 {
		c.Measure = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// Report summarizes a run.
type Report struct {
	Mix             string
	Clients         int
	Interactions    int64   // completions inside the measurement window
	ThroughputIPM   float64 // interactions per minute
	Errors          int64
	ImageFetches    int64
	Latency         stats.Histogram // completed interactions, in the window
	ByInteraction   map[string]int64
	MeasureDuration time.Duration
	// Tiers is the server stack's per-tier saturation over the run —
	// which tier bottlenecked, the paper's headline observable. It is
	// filled by callers with server-side access (core.Lab.Run) or from a
	// /status fetch (cmd/loadgen); nil when unavailable.
	Tiers *telemetry.Snapshot
}

// Bottleneck names the saturated tier, or "" when no telemetry attached.
func (r *Report) Bottleneck() string {
	if r.Tiers == nil {
		return ""
	}
	return r.Tiers.Bottleneck()
}

// FormatTiers renders the per-tier saturation section, or "" when no
// telemetry attached.
func (r *Report) FormatTiers() string {
	if r.Tiers == nil {
		return ""
	}
	return r.Tiers.Format()
}

// Run drives the profile against the web server at addr ("host:port").
func Run(addr string, p *Profile, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	weights, ok := p.Mixes[cfg.Mix]
	if !ok {
		return nil, fmt.Errorf("workload: profile %q has no mix %q", p.Name, cfg.Mix)
	}
	if len(weights) != len(p.Interactions) {
		return nil, fmt.Errorf("workload: mix %q has %d weights for %d interactions",
			cfg.Mix, len(weights), len(p.Interactions))
	}

	var (
		completed  atomic.Int64
		errors     atomic.Int64
		imgFetches atomic.Int64
		inWindow   atomic.Bool
	)
	var latency stats.Histogram
	byInter := make([]atomic.Int64, len(p.Interactions)) // completions, indexed like p.Interactions

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := emulatedClient{
				addr: addr, profile: p, weights: weights, cfg: cfg,
				g:    datagen.New(cfg.Seed + int64(i)*7919),
				stop: stop,
			}
			c.run(&completed, &errors, &imgFetches, &inWindow, &latency, byInter)
		}()
	}

	sleepInterruptible(cfg.RampUp, stop)
	if cfg.OnMeasureStart != nil {
		cfg.OnMeasureStart()
	}
	inWindow.Store(true)
	start := time.Now()
	sleepInterruptible(cfg.Measure, stop)
	inWindow.Store(false)
	measured := time.Since(start)
	if cfg.OnMeasureEnd != nil {
		cfg.OnMeasureEnd()
	}
	sleepInterruptible(cfg.RampDown, stop)
	close(stop)
	wg.Wait()

	n := completed.Load()
	counts := make(map[string]int64)
	for i, in := range p.Interactions {
		if k := byInter[i].Load(); k > 0 {
			counts[in.Name] += k
		}
	}
	return &Report{
		Mix:             cfg.Mix,
		Clients:         cfg.Clients,
		Interactions:    n,
		ThroughputIPM:   float64(n) / measured.Seconds() * 60,
		Errors:          errors.Load(),
		ImageFetches:    imgFetches.Load(),
		Latency:         latency,
		ByInteraction:   counts,
		MeasureDuration: measured,
	}, nil
}

func sleepInterruptible(d time.Duration, stop chan struct{}) {
	if d <= 0 {
		return
	}
	select {
	case <-time.After(d):
	case <-stop:
	}
}

type emulatedClient struct {
	addr    string
	profile *Profile
	weights []float64
	cfg     Config
	g       *datagen.Gen
	stop    chan struct{}
}

func (c *emulatedClient) run(completed, errors, imgFetches *atomic.Int64,
	inWindow *atomic.Bool, latency *stats.Histogram, byInter []atomic.Int64) {
	for {
		select {
		case <-c.stop:
			return
		default:
		}
		// One session: a fresh persistent connection for its lifetime.
		hc := httpclient.New(c.addr, c.cfg.Timeout)
		sessionEnd := time.Now().Add(c.exp(c.cfg.SessionMean))
		for time.Now().Before(sessionEnd) {
			select {
			case <-c.stop:
				hc.Close()
				return
			default:
			}
			idx := Pick(c.g, c.weights)
			req := c.profile.Interactions[idx].Build(c.g)
			start := time.Now()
			ok := c.doInteraction(hc, req, imgFetches)
			elapsed := time.Since(start)
			if inWindow.Load() {
				if ok {
					completed.Add(1)
					latency.Record(elapsed)
					byInter[idx].Add(1)
				} else {
					errors.Add(1)
				}
			}
			c.think()
		}
		hc.Close()
	}
}

// doInteraction performs the request plus embedded image fetches.
func (c *emulatedClient) doInteraction(hc *httpclient.Client, req Request, imgFetches *atomic.Int64) bool {
	var resp *httpd.Response
	var err error
	if req.Method == "POST" {
		resp, err = hc.PostForm(req.Path, req.Body)
	} else {
		resp, err = hc.Get(req.Path)
	}
	if err != nil || resp.Status >= 500 {
		return false
	}
	if c.cfg.FetchImages {
		for _, src := range imageSrcs(string(resp.Body)) {
			if r, err := hc.Get(src); err == nil && r.Status < 500 {
				imgFetches.Add(1)
			}
		}
	}
	return true
}

// imageSrcs extracts <img src="..."> references, the embedded objects the
// emulated browser requests with each page (§3.1).
func imageSrcs(html string) []string {
	var out []string
	rest := html
	for {
		i := strings.Index(rest, `<img src="`)
		if i < 0 {
			return out
		}
		rest = rest[i+len(`<img src="`):]
		j := strings.IndexByte(rest, '"')
		if j < 0 {
			return out
		}
		out = append(out, rest[:j])
		rest = rest[j:]
	}
}

// Pick samples an interaction index from a mix's weights (one row of the
// transition matrix), drawing one number from g.
func Pick(g *datagen.Gen, weights []float64) int {
	x := g.Float64()
	var cum float64
	for i, w := range weights {
		cum += w
		if x < cum {
			return i
		}
	}
	return len(weights) - 1
}

// think sleeps a negative-exponential think time truncated at 10x the mean
// (TPC-W clause 5.3.1.1).
func (c *emulatedClient) think() {
	d := c.exp(c.cfg.ThinkMean)
	if max := 10 * c.cfg.ThinkMean; d > max {
		d = max
	}
	sleepInterruptible(d, c.stop)
}

func (c *emulatedClient) exp(mean time.Duration) time.Duration {
	u := c.g.Float64()
	for u == 0 {
		u = c.g.Float64()
	}
	return time.Duration(-float64(mean) * ln(u))
}

// ln isolates the math dependency for the exponential sampler.
func ln(x float64) float64 { return math.Log(x) }
