package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// gateway is one running fwsim process, measured from outside.
type gateway struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	stderr *os.File
	done   chan struct{} // closed when the process has been reaped
}

// live tracks every gateway not yet stopped, so a signal handler can
// kill them; a loader panic or SIGKILL is covered by the parent-death
// signal set in procAttr.
var live struct {
	sync.Mutex
	set map[*gateway]bool
}

func killAllGateways() {
	live.Lock()
	defer live.Unlock()
	for g := range live.set {
		_ = g.cmd.Process.Kill()
	}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("free port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startGateway spawns `bin -addr <free port> -nodes 3 <flags>` with its
// stderr captured to errPath and waits until /healthz answers 200.
func startGateway(bin string, flags []string, errPath string) (*gateway, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(errPath), 0o755); err != nil {
		return nil, err
	}
	stderr, err := os.Create(errPath)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-nodes", strconv.Itoa(nodes)}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = stderr
	cmd.SysProcAttr = procAttr()
	if err := cmd.Start(); err != nil {
		stderr.Close()
		return nil, fmt.Errorf("start gateway: %w", err)
	}
	g := &gateway{cmd: cmd, base: "http://" + addr, stderr: stderr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: the gateway only ever ends by our kill
		close(g.done)
	}()
	live.Lock()
	if live.set == nil {
		live.set = make(map[*gateway]bool)
	}
	live.set[g] = true
	live.Unlock()
	if err := g.waitHealthy(10 * time.Second); err != nil {
		g.stop()
		return nil, err
	}
	return g, nil
}

func (g *gateway) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(g.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-g.done:
			return fmt.Errorf("gateway exited before it was healthy (see %s)", g.stderr.Name())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway not healthy after %v: %v", timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the gateway and returns once the process has ended.
func (g *gateway) stop() {
	_ = g.cmd.Process.Kill()
	<-g.done
	g.stderr.Close()
	live.Lock()
	delete(live.set, g)
	live.Unlock()
}

func (g *gateway) pid() int { return g.cmd.Process.Pid }
