package daemon

import (
	"io"
	"io/fs"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func quiet() *log.Logger { return log.New(io.Discard, "", 0) }

// Argument errors come back as errors naming the flag; nothing exits
// the process.
func TestArgumentErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "absent")
	ephemeral := "127.0.0.1:0"
	for _, tc := range []struct {
		name  string
		build func([]string, *log.Logger) (*Daemon, error)
		args  []string
		flag  string
	}{
		{"backend unknown flag", Backend, []string{"-bogus"}, "-bogus"},
		{"gateway unknown flag", Gateway, []string{"-backends", "http://x", "-bogus"}, "-bogus"},
		{"gateway without backends", Gateway, []string{"-addr", ephemeral}, "-backends"},
		{"gateway blank backends", Gateway, []string{"-addr", ephemeral, "-backends", " , "}, "-backends"},
		{"backend token file", Backend, []string{"-addr", ephemeral, "-auth-token-file", missing}, "-auth-token-file"},
		{"gateway token file", Gateway, []string{"-addr", ephemeral, "-backends", "http://x", "-auth-token-file", missing}, "-auth-token-file"},
		{"backend quota file", Backend, []string{"-addr", ephemeral, "-quota-file", missing}, "-quota-file"},
		{"gateway quota file", Gateway, []string{"-addr", ephemeral, "-backends", "http://x", "-quota-file", missing}, "-quota-file"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := tc.build(tc.args, quiet())
			if err == nil {
				d.Close()
				t.Fatal("no error")
			}
			if !strings.Contains(err.Error(), tc.flag) {
				t.Fatalf("error %q does not name %s", err, tc.flag)
			}
		})
	}
}

// snapshot reads every file under dir.
func snapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func serve(t *testing.T, h http.Handler, method, path string) {
	t.Helper()
	var body io.Reader
	if path == "/v2/jobs" {
		body = strings.NewReader(`{"kernel":"dot"}`)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, body))
	if rec.Code >= 300 {
		t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
	}
}

// A daemon started on a busy address fails before it opens durable
// state: the job log and gateway state log a live process may own stay
// byte-identical (opening them would replay and compact them).
func TestBusyAddressLeavesDurableStateUntouched(t *testing.T) {
	jobLog, stateDir := t.TempDir(), t.TempDir()
	const backend = "http://127.0.0.1:1"

	// Populate both logs with uncompacted records.
	b, err := Backend([]string{"-addr", "127.0.0.1:0", "-job-log-dir", jobLog}, quiet())
	if err != nil {
		t.Fatal(err)
	}
	serve(t, b.Handler, http.MethodPost, "/v2/jobs")
	b.Close()
	g, err := Gateway([]string{"-addr", "127.0.0.1:0", "-backends", backend, "-state-dir", stateDir}, quiet())
	if err != nil {
		t.Fatal(err)
	}
	serve(t, g.Handler, http.MethodPost, "/gateway/drain?backend="+backend)
	g.Close()
	before := [2]map[string]string{snapshot(t, jobLog), snapshot(t, stateDir)}
	if len(before[0]) == 0 || len(before[1]) == 0 {
		t.Fatalf("logs not populated: %d job-log files, %d state files", len(before[0]), len(before[1]))
	}

	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	addr := held.Addr().String()
	if d, err := Backend([]string{"-addr", addr, "-job-log-dir", jobLog}, quiet()); err == nil {
		d.Close()
		t.Fatal("backend bound a busy address")
	} else if !strings.Contains(err.Error(), "-addr") {
		t.Errorf("backend error %q does not name -addr", err)
	}
	if d, err := Gateway([]string{"-addr", addr, "-backends", backend, "-state-dir", stateDir}, quiet()); err == nil {
		d.Close()
		t.Fatal("gateway bound a busy address")
	} else if !strings.Contains(err.Error(), "-addr") {
		t.Errorf("gateway error %q does not name -addr", err)
	}

	after := [2]map[string]string{snapshot(t, jobLog), snapshot(t, stateDir)}
	for i, dir := range []string{"-job-log-dir", "-state-dir"} {
		if len(after[i]) != len(before[i]) {
			t.Errorf("%s: %d files, was %d", dir, len(after[i]), len(before[i]))
		}
		for path, data := range before[i] {
			if after[i][path] != data {
				t.Errorf("%s: %s changed (%d -> %d bytes)", dir, path, len(data), len(after[i][path]))
			}
		}
	}
}

// lockedBuffer is a log sink the test reads while Run's goroutines
// write to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// Run re-reads the token file on SIGHUP and returns nil after a
// graceful drain on SIGTERM.
func TestRunReloadsOnSIGHUPAndStopsOnSIGTERM(t *testing.T) {
	tokens := filepath.Join(t.TempDir(), "tokens")
	if err := os.WriteFile(tokens, []byte("tok\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	logs := &lockedBuffer{}
	d, err := Backend([]string{"-addr", "127.0.0.1:0", "-auth-token-file", tokens}, log.New(logs, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- Run(d) }()

	// An answer means Serve is running, so Run has already installed
	// its signal handlers.
	resp, err := http.Get("http://" + d.Addr() + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated request: %s, want 401", resp.Status)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(logs.String(), "SIGHUP: reloaded "+tokens); {
		if time.Now().After(deadline) {
			t.Fatalf("no reload logged after SIGHUP:\n%s", logs)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after SIGTERM")
	}
	if !strings.Contains(logs.String(), "thermflowd: shutting down") {
		t.Errorf("no graceful shutdown logged:\n%s", logs)
	}
}
