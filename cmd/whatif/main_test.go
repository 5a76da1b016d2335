package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"nestless/internal/cluster"
	"nestless/internal/snapshot"
)

// TestServeDrainsInFlightQuery: cancelling serve's context (what
// SIGINT/SIGTERM do) must let a query already in flight finish with its
// full reply before serve returns, and serve must then return nil —
// the process exits 0.
func TestServeDrainsInFlightQuery(t *testing.T) {
	svc, err := snapshot.NewService(snapshot.BaseConfig{
		Seed:      5,
		Users:     15,
		Policy:    cluster.Hostlo,
		Horizon:   2 * time.Hour,
		SnapAt:    time.Hour,
		BootDelay: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	// Hold the query at the door until the shutdown has begun.
	inFlight, release := make(chan struct{}), make(chan struct{})
	h := svc.Handler()
	gated := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/whatif" {
			close(inFlight)
			<-release
		}
		h.ServeHTTP(w, r)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- serve(ctx, ln, gated, 30*time.Second) }()

	type result struct {
		code int
		rep  snapshot.Reply
		err  error
	}
	replied := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/whatif", "application/json",
			strings.NewReader(`{"kind":"baseline"}`))
		if err != nil {
			replied <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var rep snapshot.Reply
		err = json.NewDecoder(resp.Body).Decode(&rep)
		replied <- result{code: resp.StatusCode, rep: rep, err: err}
	}()

	<-inFlight
	cancel()
	select {
	case err := <-served:
		t.Fatalf("serve returned (%v) with a query in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)

	r := <-replied
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("in-flight query: status %d, err %v", r.code, r.err)
	}
	if r.rep.Digest != svc.Stats().BaseDigest {
		t.Fatalf("baseline digest %q, want the base run's %q", r.rep.Digest, svc.Stats().BaseDigest)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve after a clean drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not return after the drain")
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("server still accepts connections after shutdown")
	}
}
