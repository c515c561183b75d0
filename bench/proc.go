package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// repoRoot finds the directory holding BENCHMARK.json, so the harness
// works from the repository root (as the driver starts it) and from
// bench/ (go run, go test).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found: run from inside the repository")
		}
		dir = parent
	}
}

// buildRSPD compiles the real cmd/rspd into the scratch directory.
func buildRSPD(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "rspd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rspd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/rspd: %v\n%s", err, out)
	}
	return bin, nil
}

// children tracks every live rspd so any exit path can kill and reap
// them: deferred cleanup, a fatal check, or a signal.
var children struct {
	sync.Mutex
	live map[*Node]bool
}

func killAllChildren() {
	children.Lock()
	var nodes []*Node
	for n := range children.live {
		nodes = append(nodes, n)
	}
	children.Unlock()
	for _, n := range nodes {
		n.Kill()
	}
}

// Node is one rspd child process.
type Node struct {
	URL     string
	Dir     string
	cmd     *exec.Cmd
	stderr  bytes.Buffer
	waited  chan struct{}
	spawned time.Time
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before rspd binds it; a lost race shows up as a failed start,
// which deploy retries on fresh ports.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// spawn starts rspd on a durability directory with production defaults
// plus the extra flags a workload needs.
func spawn(bin, dir string, port int, p Params, extra ...string) (*Node, error) {
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-world", "directory",
		"-scale", strconv.FormatFloat(p.WorldScale, 'g', -1, 64),
		"-seed", strconv.FormatInt(p.WorldSeed, 10),
		"-keybits", strconv.Itoa(p.KeyBits),
		"-wal-dir", dir,
		"-rate-limit", "0",
		"-quiet",
	}
	n := &Node{
		URL:    fmt.Sprintf("http://127.0.0.1:%d", port),
		Dir:    dir,
		cmd:    exec.Command(bin, append(args, extra...)...),
		waited: make(chan struct{}),
	}
	n.cmd.Stderr = &n.stderr
	// A harness killed outright (SIGKILL, OOM) cannot run its cleanup;
	// the kernel then takes the children down with it.
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	n.spawned = time.Now()
	if err := n.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting rspd: %w", err)
	}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*Node]bool)
	}
	children.live[n] = true
	children.Unlock()
	go func() {
		_ = n.cmd.Wait() // the exit status of a killed child carries nothing
		close(n.waited)
	}()
	return n, nil
}

// PID returns the child's process id.
func (n *Node) PID() int { return n.cmd.Process.Pid }

// WaitReady polls /readyz until it answers 200 and returns the time
// since spawn: process start, catalog build, key generation, recovery.
func (n *Node) WaitReady(client *http.Client, timeout time.Duration) (time.Duration, error) {
	deadline := n.spawned.Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-n.waited:
			return 0, fmt.Errorf("rspd exited during start:\n%s", tail(n.stderr.String(), 2000))
		default:
		}
		resp, err := client.Get(n.URL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(n.spawned), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("rspd at %s not ready after %v:\n%s", n.URL, timeout, tail(n.stderr.String(), 2000))
}

// Kill sends SIGKILL — the crash the durability check needs, and the
// fastest teardown otherwise — and waits until the process is reaped.
func (n *Node) Kill() {
	_ = n.cmd.Process.Kill() // already-exited is fine
	<-n.waited
	children.Lock()
	delete(children.live, n)
	children.Unlock()
}

func tail(s string, n int) string {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

// procSample is one reading of a process's /proc counters.
type procSample struct {
	cpu        time.Duration // utime + stime
	hwmKB      int64         // VmHWM
	writeBytes int64         // /proc/<pid>/io write_bytes: what reached the block layer
}

const clockTick = 100 // USER_HZ on every Linux Go supports

func readProc(pid int) (procSample, error) {
	var s procSample
	base := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(base + "/stat")
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseInt(fields[11], 10, 64)
	stime, _ := strconv.ParseInt(fields[12], 10, 64)
	s.cpu = time.Duration(utime+stime) * time.Second / clockTick

	s.hwmKB = procField(base+"/status", "VmHWM:")
	s.writeBytes = procField(base+"/io", "write_bytes:")
	return s, nil
}

// procField returns the first integer after a "name:" line prefix, or 0
// when the file or the line is missing (/proc/<pid>/io needs ptrace
// rights some sandboxes withhold).
func procField(path, name string) int64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, name); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// sumProc reads every node and adds the counters up.
func sumProc(nodes []*Node) (procSample, error) {
	var sum procSample
	for _, n := range nodes {
		s, err := readProc(n.PID())
		if err != nil {
			return sum, err
		}
		sum.cpu += s.cpu
		sum.hwmKB += s.hwmKB
		sum.writeBytes += s.writeBytes
	}
	return sum, nil
}

// killChildrenOnSignal reaps the children when the harness is
// interrupted or told to stop.
func killChildrenOnSignal() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killAllChildren()
		os.Exit(130)
	}()
}
