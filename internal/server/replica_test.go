package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"thermflow/api"
	"thermflow/internal/batch"
	"thermflow/internal/joblog"
)

func fakeStatus(id, state string) []byte {
	b, _ := json.Marshal(api.JobStatus{ID: id, State: state, Cached: true, FinishedMS: 1})
	return b
}

func fakeID(seed byte) string {
	return strings.Repeat(fmt.Sprintf("%02x", seed), 32)
}

func putReplica(t *testing.T, ts *httptest.Server, id string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v2/jobs/"+id+"/replica", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// A shelved replica answers status reads for an ID this backend never
// ran: verbatim body, replica marker, expired served as 504.
func TestReplicaPutAndServeFallback(t *testing.T) {
	srv := New(batch.NewRunner(1))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	doneID, expID := fakeID(0xaa), fakeID(0xbb)
	doneBody := fakeStatus(doneID, "done")
	if resp := putReplica(t, ts, doneID, doneBody); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("replica put: %s", resp.Status)
	}
	if resp := putReplica(t, ts, expID, fakeStatus(expID, "expired")); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("expired replica put: %s", resp.Status)
	}

	for _, path := range []string{"/v2/jobs/" + doneID, "/v2/jobs/" + doneID + "/wait"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s", path, resp.Status)
		}
		if resp.Header.Get(ReplicaHeader) == "" {
			t.Fatalf("%s: replica answer not marked with %s", path, ReplicaHeader)
		}
		var got bytes.Buffer
		if _, err := got.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !bytes.Equal(got.Bytes(), doneBody) {
			t.Fatalf("%s: replica body rewritten:\n got %s\nwant %s", path, got.Bytes(), doneBody)
		}
	}

	resp, err := http.Get(ts.URL + "/v2/jobs/" + expID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired replica answered %s, want 504", resp.Status)
	}

	// Unknown IDs still 404: the shelf never invents jobs.
	resp, err = http.Get(ts.URL + "/v2/jobs/" + fakeID(0xcc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown ID answered %s, want 404", resp.Status)
	}
}

// The shelf rejects documents that could corrupt it: non-terminal
// states (a replica must never need updating) and ID mismatches.
func TestReplicaPutRejectsBadDocuments(t *testing.T) {
	srv := New(batch.NewRunner(1))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	id := fakeID(0x11)
	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"running state", fakeStatus(id, "running"), http.StatusUnprocessableEntity},
		{"mismatched ID", fakeStatus(fakeID(0x22), "done"), http.StatusUnprocessableEntity},
		{"malformed JSON", []byte("{"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if resp := putReplica(t, ts, id, tc.body); resp.StatusCode != tc.want {
			t.Errorf("%s: %s, want %d", tc.name, resp.Status, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v2/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rejected replica still got shelved: %s", resp.Status)
	}
}

// A joblog-backed shelf replays its replicas after a restart.
func TestReplicaStoreDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "replicas")
	l1, rec1, err := joblog.Open(dir, joblog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewReplicaStore(0, l1, &rec1)
	ids := []string{fakeID(0x31), fakeID(0x32), fakeID(0x33)}
	for _, id := range ids {
		s1.Put(id, "done", fakeStatus(id, "done"))
	}
	l1.Close() // crash: no orderly snapshot

	l2, rec2, err := joblog.Open(dir, joblog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	s2 := NewReplicaStore(0, l2, &rec2)
	if s2.Len() != len(ids) {
		t.Fatalf("replayed shelf holds %d replicas, want %d", s2.Len(), len(ids))
	}
	for _, id := range ids {
		body, state, ok := s2.Get(id)
		if !ok || state != "done" || !bytes.Equal(body, fakeStatus(id, "done")) {
			t.Fatalf("replica %s after restart: ok=%v state=%q", id, ok, state)
		}
	}
}

// The shelf caps retention FIFO: oldest replicas fall off, newest stay.
func TestReplicaStoreCap(t *testing.T) {
	s := NewReplicaStore(2, nil, nil)
	a, b, c := fakeID(0x41), fakeID(0x42), fakeID(0x43)
	s.Put(a, "done", fakeStatus(a, "done"))
	s.Put(b, "done", fakeStatus(b, "done"))
	s.Put(c, "done", fakeStatus(c, "done"))
	if _, _, ok := s.Get(a); ok {
		t.Fatal("oldest replica survived past the cap")
	}
	for _, id := range []string{b, c} {
		if _, _, ok := s.Get(id); !ok {
			t.Fatalf("recent replica %s evicted", id)
		}
	}
}

// A later push replaces a shelved failure, but never a shelved done
// answer, whatever order pushes land in.
func TestReplicaStoreKeepsDone(t *testing.T) {
	s := NewReplicaStore(0, nil, nil)
	id := fakeID(0x51)
	for _, push := range []struct{ state, want string }{
		{"expired", "expired"}, {"failed", "failed"}, {"done", "done"}, {"expired", "done"},
	} {
		s.Put(id, push.state, fakeStatus(id, push.state))
		if _, state, _ := s.Get(id); state != push.want {
			t.Fatalf("after a %s push the shelf holds %q, want %q", push.state, state, push.want)
		}
	}
}
