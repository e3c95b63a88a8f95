// Command elsserve hosts multi-tenant networked estimation: one process,
// one TCP listener, N isolated tenants — each with its own catalog,
// durable directory, admission budget, retry/breaker policy, and plan
// cache. Clients speak the length-prefixed JSON frame protocol of
// internal/wire; the bundled database/sql driver (module path
// repro/driver) is the idiomatic way in.
//
// Usage:
//
//	elsserve -addr 127.0.0.1:7447 -tenants acme,globex [-data-dir DIR]
//	         [-max-concurrent N] [-queue-depth N] [-queue-timeout D]
//	         [-timeout D] [-max-memory N] [-memory-pool N]
//	         [-retries N] [-breaker-threshold N]
//	         [-idle-timeout D] [-drain-timeout D] [-demo]
//	         [-log events.jsonl] [-enable-fault-ops]
//
// With -data-dir, tenant X lives in DIR/X: its catalog is recovered on
// start and every acknowledged mutation survives a crash or restart.
// -demo seeds each freshly created tenant with a small demo catalog so
// the server answers queries out of the box. On SIGTERM or SIGINT the
// server drains gracefully — stops accepting, finishes in-flight
// requests (bounded by -drain-timeout), checkpoints and closes every
// tenant — and exits 0; a second signal aborts the drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	els "repro"
	"repro/internal/governor"
	"repro/internal/server"
	"repro/internal/workpool"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7447", "TCP listen address")
		tenants   = flag.String("tenants", "default", "comma-separated tenant names to host")
		dataDir   = flag.String("data-dir", "", "durable data root (tenant X lives in DIR/X); empty = in-memory")
		memPool   = flag.Int64("memory-pool", 0, "process-wide working-memory pool in bytes, split into equal per-tenant shares; reservations over a share shed with a retryable pressure error (0 = off)")
		retries   = flag.Int("retries", 0, "per-tenant retry attempts for transient failures (0 = off)")
		brkThresh = flag.Int("breaker-threshold", 0, "per-tenant circuit-breaker trip threshold (0 = off)")
		idleTO    = flag.Duration("idle-timeout", 2*time.Minute, "per-connection idle read timeout")
		drainTO   = flag.Duration("drain-timeout", 30*time.Second, "graceful drain bound on SIGTERM")
		demo      = flag.Bool("demo", false, "seed freshly created tenants with a demo catalog")
		logPath   = flag.String("log", "", "append JSONL lifecycle events to this file ('-' = stderr)")
		faultOps  = flag.Bool("enable-fault-ops", false, "honor wire fault-injection ops (tests/chaos only)")
		poison    = flag.Int("poison-threshold", 0, "consecutive panics before a tenant is quarantined (0 = server default)")
	)
	// Every tenant gets the same limits; the flags override these defaults.
	limits := els.Limits{Timeout: 30 * time.Second, MaxConcurrent: 8, MaxQueue: 64, QueueTimeout: 2 * time.Second}
	governor.BindFlags(flag.CommandLine, &limits, "timeout", "memory", "max-concurrent", "queue-timeout")
	flag.IntVar(&limits.MaxQueue, "queue-depth", limits.MaxQueue, "per-tenant admission queue depth")
	flag.Parse()
	if err := run(*addr, *tenants, *dataDir, limits, *memPool, *retries, *brkThresh, *idleTO, *drainTO, *demo, *logPath, *faultOps, *poison); err != nil {
		fmt.Fprintln(os.Stderr, "elsserve:", err)
		os.Exit(1)
	}
}

func run(addr, tenantList, dataDir string, limits els.Limits, memPool int64, retries, brkThresh int, idleTO, drainTO time.Duration, demo bool, logPath string, faultOps bool, poison int) error {
	var logW io.Writer
	switch logPath {
	case "":
	case "-":
		logW = os.Stderr
	default:
		f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644) //atomicwrite:allow append-only JSONL event log; each line is self-delimiting
		if err != nil {
			return err
		}
		defer f.Close()
		logW = f
	}

	cfg := server.Config{
		Addr:            addr,
		DataRoot:        dataDir,
		IdleTimeout:     idleTO,
		PoisonThreshold: poison,
		EnableFaultOps:  faultOps,
		MemoryPool:      memPool,
		LogW:            logW,
	}
	for _, name := range strings.Split(tenantList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		tc := server.TenantConfig{Name: name, Limits: limits}
		if retries > 1 {
			tc.Retry = els.RetryPolicy{MaxAttempts: retries, BaseDelay: time.Millisecond, MaxDelay: 100 * time.Millisecond}
		}
		if brkThresh > 0 {
			tc.Breaker = els.BreakerPolicy{Threshold: brkThresh, Cooldown: time.Second}
		}
		if demo {
			tc.Bootstrap = demoBootstrap
		}
		cfg.Tenants = append(cfg.Tenants, tc)
	}

	ctx := context.Background()
	srv, err := server.Start(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "elsserve: listening on %s (%d tenants)\n", srv.Addr(), len(cfg.Tenants))

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigCh
	fmt.Fprintf(os.Stderr, "elsserve: %s — draining (bound %s)\n", sig, drainTO)

	drainCtx, cancel := context.WithTimeout(ctx, drainTO)
	defer cancel()
	workpool.Async(func() error {
		<-sigCh // a second signal aborts the drain
		cancel()
		return nil
	})
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "elsserve: drained cleanly")
	return nil
}

// demoBootstrap seeds a freshly created tenant with a three-table demo
// catalog (statistics plus data, so both estimates and executed queries
// answer out of the box).
func demoBootstrap(sys *els.System) error {
	emp := make([][]int64, 0, 500)
	for i := int64(0); i < 500; i++ {
		emp = append(emp, []int64{i, i % 50, i % 10})
	}
	dept := make([][]int64, 0, 50)
	for i := int64(0); i < 50; i++ {
		dept = append(dept, []int64{i, i % 10})
	}
	loc := make([][]int64, 0, 10)
	for i := int64(0); i < 10; i++ {
		loc = append(loc, []int64{i, i % 3})
	}
	if err := sys.LoadTable("emp", []string{"id", "dept_id", "loc_id"}, emp); err != nil {
		return err
	}
	if err := sys.LoadTable("dept", []string{"id", "loc_id"}, dept); err != nil {
		return err
	}
	return sys.LoadTable("loc", []string{"id", "region"}, loc)
}
