package workload

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/httpd"
)

// testProfile exposes two interactions with distinguishable paths.
func testProfile() *Profile {
	return &Profile{
		Name: "test",
		Interactions: []Interaction{
			{Name: "read", Build: func(g *datagen.Gen) Request {
				return Request{Method: "GET", Path: fmt.Sprintf("/read?x=%d", g.Intn(10))}
			}},
			{Name: "write", Build: func(g *datagen.Gen) Request {
				return Request{Method: "POST", Path: "/write", Body: "v=1"}
			}},
		},
		Mixes: map[string][]float64{
			"mostly-read": {0.9, 0.1},
			"only-read":   {1.0, 0.0},
		},
	}
}

func startEcho(t *testing.T, withImages bool) (string, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	var reads, writes atomic.Int64
	mux := httpd.NewMux()
	mux.HandleFunc("/read", func(req *httpd.Request) (*httpd.Response, error) {
		reads.Add(1)
		r := httpd.NewResponse()
		if withImages {
			r.WriteString(`<html><img src="/img/a.gif"><img src="/img/b.gif"></html>`)
		} else {
			r.WriteString("<html>ok</html>")
		}
		return r, nil
	})
	mux.HandleFunc("/write", func(req *httpd.Request) (*httpd.Response, error) {
		writes.Add(1)
		r := httpd.NewResponse()
		r.WriteString("<html>done</html>")
		return r, nil
	})
	mux.HandleFunc("/img/", func(req *httpd.Request) (*httpd.Response, error) {
		r := httpd.NewResponse()
		r.Header.Set("Content-Type", "image/gif")
		r.WriteString("GIF89a")
		return r, nil
	})
	srv := httpd.NewServer(mux, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String(), &reads, &writes
}

func TestRunCollectsMetrics(t *testing.T) {
	addr, reads, writes := startEcho(t, false)
	rep, err := Run(addr, testProfile(), Config{
		Clients: 4, Mix: "mostly-read",
		ThinkMean: time.Millisecond, SessionMean: 200 * time.Millisecond,
		RampUp: 50 * time.Millisecond, Measure: 400 * time.Millisecond,
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Interactions == 0 || rep.Errors != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.ThroughputIPM <= 0 || rep.Latency.Count() == 0 {
		t.Fatalf("metrics missing: %+v", rep)
	}
	if reads.Load() == 0 {
		t.Fatal("server saw no reads")
	}
	// mostly-read mix should strongly favor reads.
	if rep.ByInteraction["read"] < rep.ByInteraction["write"] {
		t.Fatalf("mix not respected: %+v", rep.ByInteraction)
	}
	// Every completion in the window is timed once and counted once under
	// its interaction, from 4 clients at once.
	var byName int64
	for _, n := range rep.ByInteraction {
		byName += n
	}
	if rep.Latency.Count() != rep.Interactions || byName != rep.Interactions {
		t.Fatalf("%d completions, %d timed, %d counted by interaction", rep.Interactions, rep.Latency.Count(), byName)
	}
	_ = writes
}

func TestMixZeroWeightNeverRuns(t *testing.T) {
	addr, _, writes := startEcho(t, false)
	_, err := Run(addr, testProfile(), Config{
		Clients: 3, Mix: "only-read",
		ThinkMean: time.Millisecond, SessionMean: 100 * time.Millisecond,
		Measure: 200 * time.Millisecond, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if writes.Load() != 0 {
		t.Fatalf("zero-weight interaction ran %d times", writes.Load())
	}
}

func TestImageFetching(t *testing.T) {
	addr, _, _ := startEcho(t, true)
	rep, err := Run(addr, testProfile(), Config{
		Clients: 2, Mix: "only-read",
		ThinkMean: time.Millisecond, SessionMean: 100 * time.Millisecond,
		Measure: 300 * time.Millisecond, FetchImages: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ImageFetches < rep.Interactions {
		t.Fatalf("expected ~2 images per page: %d images / %d interactions",
			rep.ImageFetches, rep.Interactions)
	}
}

func TestUnknownMix(t *testing.T) {
	if _, err := Run("127.0.0.1:1", testProfile(), Config{Mix: "nope"}); err == nil {
		t.Fatal("unknown mix must fail")
	}
}

func TestImageSrcParsing(t *testing.T) {
	html := `<html><img src="/a.gif">text<img src="/b/c.png"><img src=></html>`
	got := imageSrcs(html)
	if len(got) != 2 || got[0] != "/a.gif" || got[1] != "/b/c.png" {
		t.Fatalf("imageSrcs: %v", got)
	}
	if srcs := imageSrcs("no images here"); len(srcs) != 0 {
		t.Fatalf("phantom images: %v", srcs)
	}
}

func TestDeterministicPick(t *testing.T) {
	p := testProfile()
	w := p.Mixes["mostly-read"]
	g1, g2 := datagen.New(7), datagen.New(7)
	for i := 0; i < 100; i++ {
		if Pick(g1, w) != Pick(g2, w) {
			t.Fatal("same seed diverged")
		}
	}
}
