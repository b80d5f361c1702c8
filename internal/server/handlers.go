// HTTP surface of the daemon. All job payloads are NDJSON
// (application/x-ndjson): one compact workload.Job object per line in
// requests, one sim.JobMetrics object per line on the completion
// stream.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	"treesched/internal/workload"
)

const ndjsonType = "application/x-ndjson"

// Handler returns the daemon's HTTP routing handler:
//
//	POST /jobs        NDJSON job batch -> AdmitResult (200/400/429/503)
//	GET  /stats       StatsView JSON
//	GET  /healthz     200 while the engine is alive
//	GET  /readyz      200 while admitting (503 draining or dead)
//	GET  /completions NDJSON stream of completions until drain
//	POST /drain       stop admission, finish accepted jobs, final StatsView
//
// The route table is a switch rather than an http.ServeMux: the
// pattern set is six fixed literal paths, and registering them with
// the pattern router costs a few hundred allocations per daemon —
// visible in the inject-drain benchmark, which starts a daemon per
// iteration. Semantics match the mux: unknown paths 404, known paths
// with the wrong method 405 with an Allow header, HEAD allowed
// wherever GET is.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(s.route)
}

func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	var get, post http.HandlerFunc
	switch r.URL.Path {
	case "/jobs":
		post = s.handleJobs
	case "/stats":
		get = s.handleStats
	case "/healthz":
		get = s.handleHealthz
	case "/readyz":
		get = s.handleReadyz
	case "/completions":
		get = s.handleCompletions
	case "/drain":
		post = s.handleDrain
	default:
		http.NotFound(w, r)
		return
	}
	switch {
	case get != nil && (r.Method == http.MethodGet || r.Method == http.MethodHead):
		get(w, r)
	case post != nil && r.Method == http.MethodPost:
		post(w, r)
	default:
		allow := "GET, HEAD"
		if post != nil {
			allow = "POST"
		}
		w.Header().Set("Allow", allow)
		http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	writeJSONBody(w, v)
}

func writeJSONBody(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Every payload type here marshals; this is unreachable short
		// of a programming error.
		return
	}
	w.Write(append(b, '\n'))
}

// handleJobs admits an NDJSON submission in read-ahead batches of up
// to admitReadAhead lines, each stamped under one lock acquisition
// (admitBatch). Admission still stops at the first shed or invalid
// job: everything before it is admitted and stays admitted (the
// response's Accepted/FirstID say exactly which), everything from it
// on is the client's to resubmit.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	// The stall guard here is a connection read deadline, refreshed
	// once per read-ahead batch, not workload's pump-goroutine
	// stallReader: an abandoned read on an http request body holds the
	// body's mutex, which would wedge the connection teardown. A
	// deadline makes the blocked read itself return. (stallReader is
	// for plain byte streams — pipes, files.)
	lim := s.cfg.limits()
	rc := http.NewResponseController(w)
	defer rc.SetReadDeadline(time.Time{})
	src := workload.NewNDJSONSourceLimited(r.Body, workload.SourceLimits{MaxLineBytes: lim.MaxLineBytes})
	res := AdmitResult{FirstID: -1}
	fail := func(status int, err error) {
		res.Error = err.Error()
		writeJSON(w, status, res)
	}
	batch := s.getBatch()
	sent := false // the engine owns batch's backing array
	for {
		rc.SetReadDeadline(time.Now().Add(lim.Stall))
		batch = batch[:0]
		for len(batch) < admitReadAhead {
			j, ok := src.Next()
			if !ok {
				break
			}
			batch = append(batch, j)
		}
		if len(batch) == 0 {
			break
		}
		br := s.admitBatch(batch)
		if br.accepted > 0 {
			sent = true
			if res.FirstID < 0 {
				res.FirstID = br.firstID
			}
			res.Accepted += br.accepted
		}
		switch br.outcome {
		case admitOK:
			if len(batch) < admitReadAhead {
				// Short read: the source is exhausted or failed;
				// src.Err below distinguishes.
				goto drained
			}
			if sent {
				batch = s.getBatch()
				sent = false
			}
			continue
		case admitShed:
			res.Shed = 1
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(s.cfg.retryAfter().Seconds()))))
			fail(http.StatusTooManyRequests, fmt.Errorf("server: shedding load (see /stats); job %d of the batch and everything after it were not admitted", res.Accepted))
			return
		case admitDraining:
			fail(http.StatusServiceUnavailable, fmt.Errorf("server: draining; no new jobs"))
			return
		case admitDead:
			fail(http.StatusServiceUnavailable, fmt.Errorf("server: engine failed (see /stats)"))
			return
		case admitInvalid:
			fail(http.StatusBadRequest, fmt.Errorf("job %d of the batch: %w", res.Accepted, br.err))
			return
		}
	}
drained:
	if !sent {
		s.putBatch(batch)
	}
	if err := src.Err(); err != nil {
		s.countRejected()
		status := http.StatusBadRequest
		var ne net.Error
		if errors.Is(err, workload.ErrStalled) || (errors.As(err, &ne) && ne.Timeout()) {
			status = http.StatusRequestTimeout
			err = fmt.Errorf("server: submission stalled past %v: %w", lim.Stall, workload.ErrStalled)
		}
		if errors.Is(err, workload.ErrLineTooLong) {
			status = http.StatusRequestEntityTooLarge
		}
		fail(status, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.Healthy() {
		http.Error(w, "engine failed", http.StatusInternalServerError)
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		http.Error(w, "not admitting", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

// handleCompletions streams completions as NDJSON until the run
// drains, the subscriber falls behind (dropped), or the client goes
// away. Lines are the engine's own bytes: identical to what
// sim.NDJSONSink writes offline. Each wake-up writes every chunk
// already queued and flushes once, so a lagging reader costs fewer
// writes, not different bytes. A drained run ends the response
// cleanly; a dropped subscriber's response is aborted instead, so the
// client's read fails rather than looking like a complete stream.
func (s *Server) handleCompletions(w http.ResponseWriter, r *http.Request) {
	id, sub := s.subscribe()
	defer s.unsubscribe(id)
	w.Header().Set("Content-Type", ndjsonType)
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	if fl != nil {
		fl.Flush()
	}
	for {
		var chunk []byte
		var ok bool
		select {
		case chunk, ok = <-sub.ch:
		case <-r.Context().Done():
			return
		}
		if ok {
			// Write every chunk already queued, then flush once.
			for more := true; more; {
				if _, err := w.Write(chunk); err != nil {
					return
				}
				select {
				case chunk, more = <-sub.ch:
					ok = more
				default:
					more = false
				}
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if !ok {
			if sub.dropped {
				// Set before the channel was closed, under subMu.
				panic(http.ErrAbortHandler)
			}
			return
		}
	}
}

// handleDrain initiates (or joins) the graceful drain and responds
// with the final stats once every accepted job has completed.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if err := s.Drain(); err != nil {
		writeJSON(w, http.StatusInternalServerError, s.Stats())
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}
