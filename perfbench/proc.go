package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one program process the benchmark started.
type daemon struct {
	name string
	path string
	args []string
	url  string
	log  *os.File
	cmd  *exec.Cmd
	done chan struct{}
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func (d *daemon) start() error {
	cmd := exec.Command(d.path, d.args...)
	cmd.Stdout, cmd.Stderr = d.log, d.log
	// A daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	d.cmd, d.done = cmd, make(chan struct{})
	go func() { cmd.Wait(); close(d.done) }()
	return nil
}

// kill sends SIGKILL and waits for the process to be gone.
func (d *daemon) kill() {
	if d.cmd == nil {
		return
	}
	d.cmd.Process.Kill()
	<-d.done
	d.cmd = nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// waitReady polls url until it answers 200.
func waitReady(c *http.Client, url string, d *daemon, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if d != nil {
			select {
			case <-d.done:
				return fmt.Errorf("%s exited during start-up (see %s)", d.name, d.log.Name())
			default:
			}
		}
		resp, err := c.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %s", url, limit)
}

// newClient is one load-generator connection: the transport keeps at
// most one connection per host.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		},
	}
}

// call issues one request and decodes a 2xx JSON body into out.
func call(c *http.Client, method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// cpuTicks is utime+stime of a process in clock ticks.
func cpuTicks(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime
	// are fields 14 and 15 of the whole line.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return u + st, nil
}

// cpuTime is the host's CPU time as /proc/stat counts it, in ticks.
type cpuTime struct{ steal, total int64 }

// hostSteal reads the steal and total time of all CPUs.
func hostSteal() (cpuTime, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTime{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTime{}, fmt.Errorf("unexpected /proc/stat: %q", line)
	}
	var t cpuTime
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cpuTime{}, fmt.Errorf("bad /proc/stat: %q", line)
		}
		// user … steal; guest time is already counted in user.
		if i < 8 {
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t, nil
}

// since is the share of CPU time stolen by the hypervisor between two
// readings: time the guest's CPUs were ready to run but did not.
func (t cpuTime) since(before cpuTime) float64 {
	return float64(t.steal-before.steal) / float64(max(t.total-before.total, 1))
}

// clockTick is the kernel's USER_HZ, fixed at 100 on Linux.
const clockTick = 10 * time.Millisecond

// vmHWM is a process's peak resident set in bytes.
func vmHWM(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// newDaemon prepares (but does not start) a program process whose
// output goes to a log file in dir.
func newDaemon(dir, name, path string, args []string, url string) (*daemon, error) {
	lf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	return &daemon{name: name, path: path, args: args, url: url, log: lf}, nil
}
