package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/peer"
	"repro/internal/server"
)

// clockTicks is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux ABI Go supports.
const clockTicks = 100

// node is one running vwsdkd process.
type node struct {
	addr string
	cmd  *exec.Cmd
	done chan error
	log  *os.File
}

// fleet is the set of daemons one workload runs against.
type fleet struct {
	nodes []*node
}

// freePorts reserves n loopback ports by binding and releasing them; the
// daemon is told its port up front because -peers must name every node.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// primeStores writes each prime request into the store of the node that
// owns its key, through vwsdkd's own offline priming mode (-warm-only), so
// a proxied key never lands in a non-owner's store.
func primeStores(ctx context.Context, bin, dir string, addrs []string, prime []Request) error {
	ring, err := peer.NewRing("", addrs)
	if err != nil {
		return err
	}
	per := make([][]json.RawMessage, len(addrs))
	for _, r := range prime {
		i := 0
		if len(addrs) > 1 {
			owner, _ := ring.Owner(r.Key)
			for j, a := range addrs {
				if a == owner {
					i = j
				}
			}
		}
		per[i] = append(per[i], r.Body)
	}
	for i := range addrs {
		manifest, err := json.Marshal(server.Manifest{Requests: per[i]})
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("manifest-%d.json", i))
		if err := os.WriteFile(path, manifest, 0o644); err != nil {
			return err
		}
		cmd := exec.CommandContext(ctx, bin, "-store", storeDir(dir, i), "-warm", path, "-warm-only", "-quiet")
		cmd.SysProcAttr = dieWithParent()
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("prime store %d: %v: %s", i, err, out)
		}
	}
	return nil
}

// dieWithParent has the kernel kill a daemon whose benchmark process dies
// without stopping it, so no run leaves a vwsdkd behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

func storeDir(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("store-%d", i)) }

// startFleet launches n daemons as deployed: default flags, the access log
// on (to a file in dir), a store each, and -peers when n > 1. It returns
// once every node answers /healthz.
func startFleet(ctx context.Context, bin, dir string, addrs []string) (*fleet, error) {
	f := &fleet{}
	for i, addr := range addrs {
		args := []string{"-addr", addr, "-store", storeDir(dir, i)}
		if len(addrs) > 1 {
			args = append(args, "-peers", strings.Join(addrs, ","))
		}
		logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("access-%d.log", i)))
		if err != nil {
			f.stop()
			return nil, err
		}
		cmd := exec.Command(bin, args...)
		cmd.SysProcAttr = dieWithParent()
		cmd.Stdout = logf
		cmd.Stderr = logf
		if err := cmd.Start(); err != nil {
			logf.Close()
			f.stop()
			return nil, err
		}
		n := &node{addr: addr, cmd: cmd, done: make(chan error, 1), log: logf}
		go func() { n.done <- cmd.Wait() }()
		f.nodes = append(f.nodes, n)
	}
	for _, n := range f.nodes {
		if err := n.waitReady(ctx); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func (n *node) url(path string) string { return "http://" + n.addr + path }

func (n *node) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	c := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case err := <-n.done:
			n.done <- err
			return fmt.Errorf("vwsdkd on %s exited during start-up: %v (see %s)", n.addr, err, n.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := c.Get(n.url("/healthz"))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
	return fmt.Errorf("vwsdkd on %s not ready after 20s", n.addr)
}

// stop terminates every node gracefully (SIGTERM drains and flushes the
// store) and waits for each process to exit.
func (f *fleet) stop() {
	for _, n := range f.nodes {
		n.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, n := range f.nodes {
		select {
		case <-n.done:
		case <-time.After(15 * time.Second):
			n.cmd.Process.Kill()
			<-n.done
		}
		n.log.Close()
	}
	f.nodes = nil
}

// cpuTicks is the node's user+sys CPU so far, in clock ticks.
func (n *node) cpuTicks() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	fields := strings.Fields(string(data[i+1:]))
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(fields[12], 10, 64) // field 15
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return utime + stime, nil
}

// peakRSSMB is the node's VmHWM in MiB.
func (n *node) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stats fetches the node's /stats counters.
func (n *node) stats(c *http.Client) (server.Stats, error) {
	var s server.Stats
	resp, err := c.Get(n.url("/stats"))
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/stats: %s", resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}
