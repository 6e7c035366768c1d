package api_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"

	"mpss"
	"mpss/api"
	"mpss/internal/server"
)

func newTestServer(t *testing.T) *api.Client {
	t.Helper()
	srv := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
	})
	return api.NewClient(ts.URL)
}

func testRequest() *api.SolveRequest {
	return &api.SolveRequest{
		M: 2,
		Jobs: []mpss.Job{
			{ID: 1, Release: 0, Deadline: 4, Work: 8},
			{ID: 2, Release: 1, Deadline: 5, Work: 3},
			{ID: 3, Release: 2, Deadline: 8, Work: 6},
		},
	}
}

func TestClientSolveRoundtrip(t *testing.T) {
	c := newTestServer(t)
	res, err := c.Solve(context.Background(), testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy <= 0 {
		t.Errorf("energy = %v, want > 0", res.Energy)
	}
	if res.Alpha != 3 {
		t.Errorf("alpha = %v, want default 3", res.Alpha)
	}
	if len(res.Phases) == 0 {
		t.Error("no phases in optimal response")
	}
}

func TestClientTypedError(t *testing.T) {
	c := newTestServer(t)
	req := testRequest()
	req.Cap = 0.001 // far below the minimum feasible speed
	_, err := c.AtCap(context.Background(), req)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("error type %T, want *api.Error", err)
	}
	if apiErr.Status != 422 || apiErr.Kind != "infeasible" {
		t.Errorf("got status %d kind %q, want 422 infeasible", apiErr.Status, apiErr.Kind)
	}
	if apiErr.RequestID == "" {
		t.Error("error carries no request ID")
	}
}

func TestClientRequestIDPinned(t *testing.T) {
	c := newTestServer(t)
	ctx := api.WithRequestID(context.Background(), "pinned-id-1")
	res, err := c.DoRaw(ctx, "GET", "/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestID != "pinned-id-1" {
		t.Errorf("echoed request ID %q, want pinned-id-1", res.RequestID)
	}
}

func TestClientMinCapAndFeasible(t *testing.T) {
	c := newTestServer(t)
	ctx := context.Background()
	mc, err := c.MinCap(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if mc.Cap <= 0 {
		t.Fatalf("min cap = %v, want > 0", mc.Cap)
	}
	req := testRequest()
	req.Cap = mc.Cap * 2
	fr, err := c.Feasible(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Feasible {
		t.Errorf("cap %v (2x min cap) reported infeasible", req.Cap)
	}
}

func TestClientSessionLifecycle(t *testing.T) {
	c := newTestServer(t)
	ctx := context.Background()
	sess, err := c.SessionCreate(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if sess.SessionID == "" {
		t.Fatal("empty session ID")
	}
	upd, err := c.SessionDelta(ctx, sess.SessionID, &api.SessionDeltaRequest{
		AddJobs: []mpss.Job{{ID: 9, Release: 0, Deadline: 10, Work: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if upd.Jobs != 4 {
		t.Errorf("jobs after delta = %d, want 4", upd.Jobs)
	}
	if err := c.SessionDelete(ctx, sess.SessionID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionPoll(ctx, sess.SessionID, 0, 0); err == nil {
		t.Error("poll after delete succeeded, want error")
	}
}

// The envelope carries its fields only under "error": the deprecated
// top-level "kind" and "request_id" mirrors are gone from the wire, and
// a body that has only them decodes as a bare-status error.
func TestErrorBodyBackCompat(t *testing.T) {
	body := api.NewErrorBody("infeasible", "no schedule", "req-1")
	if body.Error.Kind != "infeasible" || body.Error.Message != "no schedule" || body.Error.RequestID != "req-1" {
		t.Errorf("nested envelope wrong: %+v", body.Error)
	}
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"error":{"kind":"infeasible","message":"no schedule","request_id":"req-1"}}`; string(raw) != want {
		t.Errorf("wire form %s, want %s", raw, want)
	}
	e := api.DecodeError(422, "hdr-id", []byte(`{"kind":"infeasible","request_id":"req-1"}`))
	if e.Kind != "http_422" || e.RequestID != "hdr-id" {
		t.Errorf("pre-envelope body decoded as %+v, want the bare status", e)
	}
}
