package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"treesched/internal/workload"
)

// spacedJobs builds n unit jobs whose releases are far enough apart
// that job i completes (in virtual time) before job i+1 arrives — so
// each injection surfaces the previous job's completion line, and the
// last job's line surfaces only at drain.
func spacedJobs(n int) []workload.Job {
	jobs := make([]workload.Job, n)
	for i := range jobs {
		jobs[i] = workload.Job{Release: float64(i) * 1000, Size: 1}
	}
	return jobs
}

// lineReader pumps a completion stream's lines into a channel so the
// test can assert on delivery timing without blocking.
func lineReader(t *testing.T, cl *Client) <-chan string {
	t.Helper()
	stream, err := cl.Completions(context.Background())
	if err != nil {
		t.Fatalf("Completions: %v", err)
	}
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stream)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	return lines
}

func expectLines(t *testing.T, lines <-chan string, n int, what string) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case ln, ok := <-lines:
			if !ok {
				t.Fatalf("%s: stream closed after %d of %d lines", what, i, n)
			}
			if ln == "" {
				t.Fatalf("%s: empty completion line", what)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: saw %d of %d completion lines", what, i, n)
		}
	}
}

func expectNoLine(t *testing.T, lines <-chan string, what string) {
	t.Helper()
	select {
	case ln, ok := <-lines:
		if ok {
			t.Fatalf("%s: unexpected completion line %q", what, ln)
		}
		t.Fatalf("%s: stream closed early", what)
	case <-time.After(50 * time.Millisecond):
	}
}

// The chunk-size half of the fan-out latency bound: with FlushLines=4
// and six spaced jobs in one submission, five completions surface
// during injection — the first four flush as a full chunk, the fifth
// via the idle flush when the engine blocks on the empty queue — and
// the sixth only at drain.
func TestFanoutFlushAtChunkSize(t *testing.T) {
	sc := serveScenario(t, "topo=star:4 serve")
	_, cl, _ := startDaemon(t, Config{Scenario: sc, FlushLines: 4})
	lines := lineReader(t, cl)

	if _, err := cl.Submit(context.Background(), spacedJobs(6)); err != nil {
		t.Fatal(err)
	}
	expectLines(t, lines, 5, "before drain")
	expectNoLine(t, lines, "last job before drain")

	if _, err := cl.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	expectLines(t, lines, 1, "after drain")
}

// The idle half of the bound: with a chunk size that six jobs can
// never fill, buffered completions must still be delivered as soon as
// the engine goes idle, not held until drain.
func TestFanoutFlushOnIdle(t *testing.T) {
	sc := serveScenario(t, "topo=star:4 serve")
	_, cl, _ := startDaemon(t, Config{Scenario: sc, FlushLines: 1 << 20})
	lines := lineReader(t, cl)

	if _, err := cl.Submit(context.Background(), spacedJobs(2)); err != nil {
		t.Fatal(err)
	}
	expectLines(t, lines, 1, "idle flush before drain")

	if _, err := cl.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	expectLines(t, lines, 1, "after drain")
}

// A stalled subscriber must be dropped — counted exactly once — while
// the engine keeps completing every admitted job.
func TestSlowSubscriberDroppedOnce(t *testing.T) {
	sc := serveScenario(t, "topo=star:4 serve")
	srv, cl, _ := startDaemon(t, Config{Scenario: sc, FlushLines: 1, SubscriberBuffer: 1})

	// Subscribe directly and never read: with one-line chunks and a
	// one-chunk buffer, the second completion must drop us.
	_, sub := srv.subscribe()

	const n = 40
	if _, err := cl.Submit(context.Background(), spacedJobs(n)); err != nil {
		t.Fatal(err)
	}
	final, err := cl.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if final.Completed != n {
		t.Fatalf("engine completed %d of %d jobs with a stalled subscriber present", final.Completed, n)
	}
	if final.Dropped != 1 {
		t.Fatalf("dropped count = %d, want exactly 1", final.Dropped)
	}
	if final.Subscribers != 0 {
		t.Fatalf("dropped subscriber still counted live: %d", final.Subscribers)
	}
	if !sub.dropped {
		t.Fatal("subscriber not marked dropped")
	}
	// The channel holds the one chunk that fit, then is closed — a
	// second close anywhere would have panicked the engine goroutine.
	if _, ok := <-sub.ch; !ok {
		t.Fatal("buffered chunk lost on drop")
	}
	if _, ok := <-sub.ch; ok {
		t.Fatal("subscriber channel not closed after drop")
	}
}

// stallWriter blocks every body write until gate closes, standing in
// for a client that stopped reading (without needing the kernel's
// socket buffers to fill first).
type stallWriter struct {
	http.ResponseWriter
	gate chan struct{}
}

func (w *stallWriter) Write(p []byte) (int, error) {
	<-w.gate
	return w.ResponseWriter.Write(p)
}

func (w *stallWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// A subscriber the fan-out dropped must not see the clean end of
// stream a drain produces: its response is aborted, so the read fails
// with an error other than io.EOF. A subscriber that kept up still
// ends with a clean io.EOF.
func TestDroppedSubscriberStreamAborts(t *testing.T) {
	sc := serveScenario(t, "topo=star:4 serve")
	const n = 40

	t.Run("dropped", func(t *testing.T) {
		srv, err := New(Config{Scenario: sc, FlushLines: 1, SubscriberBuffer: 1})
		if err != nil {
			t.Fatal(err)
		}
		gate := make(chan struct{})
		h := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/completions" {
				w = &stallWriter{ResponseWriter: w, gate: gate}
			}
			h.ServeHTTP(w, r)
		}))
		released := false
		t.Cleanup(func() {
			if !released {
				close(gate)
			}
			srv.Drain()
			ts.Close()
		})
		cl := &Client{Base: ts.URL}
		stream, err := cl.Completions(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Close()
		if _, err := cl.Submit(context.Background(), spacedJobs(n)); err != nil {
			t.Fatal(err)
		}
		final, err := cl.Drain(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if final.Completed != n || final.Dropped != 1 {
			t.Fatalf("completed %d, dropped %d; want %d and 1", final.Completed, final.Dropped, n)
		}
		close(gate)
		released = true
		body, err := io.ReadAll(stream)
		if err == nil {
			t.Fatalf("dropped subscriber's stream ended cleanly after %d bytes", len(body))
		}
		if errors.Is(err, io.EOF) {
			t.Fatalf("dropped subscriber's read ended in %v, want an abort", err)
		}
	})

	t.Run("drained", func(t *testing.T) {
		_, cl, _ := startDaemon(t, Config{Scenario: sc, FlushLines: 1})
		stream, err := cl.Completions(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Close()
		if _, err := cl.Submit(context.Background(), spacedJobs(n)); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1<<16)
		var lines int
		for {
			k, err := stream.Read(buf)
			lines += bytes.Count(buf[:k], []byte{'\n'})
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("drained subscriber's read failed: %v", err)
			}
		}
		if lines != n {
			t.Fatalf("drained subscriber read %d lines, want %d", lines, n)
		}
	})
}

// flushCountWriter is a ResponseWriter that records the body and
// counts Flush calls. Its first Flush (the handler's header flush)
// reports the subscription and waits for the test.
type flushCountWriter struct {
	hdr        http.Header
	body       bytes.Buffer
	flushes    int
	subscribed chan struct{}
	gate       chan struct{}
}

func (w *flushCountWriter) Header() http.Header         { return w.hdr }
func (w *flushCountWriter) WriteHeader(int)             {}
func (w *flushCountWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

func (w *flushCountWriter) Flush() {
	if w.flushes++; w.flushes == 1 {
		close(w.subscribed)
		<-w.gate
	}
}

// The completion handler writes every chunk already queued for it and
// flushes once per wake-up: same bytes, fewer flushes when the reader
// lags.
func TestCompletionsCoalesceQueuedChunks(t *testing.T) {
	sc := serveScenario(t, "topo=star:4 serve")
	srv, _, _ := startDaemon(t, Config{Scenario: sc})
	w := &flushCountWriter{hdr: http.Header{}, subscribed: make(chan struct{}), gate: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handleCompletions(w, httptest.NewRequest(http.MethodGet, "/completions", nil))
	}()
	<-w.subscribed
	chunks := []string{"{\"a\":1}\n", "{\"b\":2}\n{\"c\":3}\n", "{\"d\":4}\n"}
	var subs []*subscriber
	srv.subMu.Lock()
	for _, sub := range srv.subs {
		subs = append(subs, sub)
	}
	srv.subMu.Unlock()
	if len(subs) != 1 {
		t.Fatalf("%d subscribers, want 1", len(subs))
	}
	for _, c := range chunks {
		subs[0].ch <- []byte(c)
	}
	close(w.gate)
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	<-done
	if got, want := w.body.String(), strings.Join(chunks, ""); got != want {
		t.Fatalf("body %q, want %q", got, want)
	}
	if w.flushes != 2 {
		t.Fatalf("%d flushes, want 2 (the header and one for all three queued chunks)", w.flushes)
	}
}
