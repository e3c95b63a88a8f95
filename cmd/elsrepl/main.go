// Command elsrepl is an interactive shell for the estimation system: load
// CSV data or declare statistics, pick an estimation algorithm, and
// explain, estimate, or execute queries. Type "help" inside the shell.
//
// A script can be piped on stdin:
//
//	echo 'declare R 1000 x=100
//	      estimate SELECT COUNT(*) FROM R WHERE x < 10' | elsrepl
//
// Resource budgets applied to every query can be set up front with
// -timeout, -max-tuples, -max-rows, and -max-plans, or at runtime with the
// "limits" command inside the shell. -max-concurrent and -queue-timeout
// configure admission control for sessions that share the system with other
// work.
//
// -data-dir backs the session with a durable catalog directory: statistics
// declared in the shell are written ahead to a checksummed WAL and fsynced
// before being acknowledged, a previous session's catalog is recovered on
// startup, and the WAL is compacted into an atomic checkpoint on clean
// exit. Inside the shell, "checkpoint" compacts eagerly and "recover"
// replays the directory as a post-crash restart would.
//
// A durable session can also ship its WAL to read replicas: "replica
// attach <dir>" opens a follower catalog that tails every acknowledged
// mutation, "replica status" shows per-follower version, lag, and
// quarantine state, and "replica promote <id>" fails the session over to
// a replica, making it the writable primary. "limits max-replica-lag=N"
// bounds how stale an attached replica may serve before reads are
// rejected with a typed staleness error.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	els "repro"
	"repro/internal/governor"
	"repro/internal/repl"
)

func main() {
	var limits els.Limits
	governor.BindFlags(flag.CommandLine, &limits,
		"timeout", "tuples", "rows", "plans", "memory", "max-concurrent", "queue-timeout")
	dataDir := flag.String("data-dir", "", "durable catalog directory (WAL + checkpoints); recovered on start, checkpointed on exit")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, limits, *dataDir, isTerminal()); err != nil {
		fmt.Fprintln(os.Stderr, "elsrepl:", err)
		os.Exit(1)
	}
}

// run drives one REPL session reading commands from in and writing results
// to out. It returns only on input exhaustion, a "quit" command, or an I/O
// error; per-command failures are reported to out and the session
// continues. A final line not terminated by a newline (mid-line EOF — a
// script missing its trailing newline, or ^D typed after a command) is
// executed before the session ends cleanly. A durable session (dataDir
// non-empty) checkpoints the WAL and closes the store on the way out.
func run(in io.Reader, out io.Writer, limits els.Limits, dataDir string, interactive bool) error {
	p := repl.New(out)
	if dataDir != "" {
		var err error
		if p, err = repl.NewAt(out, dataDir); err != nil {
			return err
		}
		// Re-read the system at exit: a "recover" command swaps in a
		// fresh one and closes the old one itself.
		defer func() { closeDurable(p.System()) }()
		if interactive {
			d := p.System().DurabilityStats()
			fmt.Fprintf(out, "recovered %s at catalog version %d\n", dataDir, d.LastVersion)
		}
	}
	p.System().SetLimits(limits)
	r := bufio.NewReader(in)
	if interactive {
		fmt.Fprintln(out, "els repl — type 'help' for commands")
	}
	for {
		if interactive {
			fmt.Fprint(out, "els> ")
		}
		line, err := r.ReadString('\n')
		if line != "" {
			quit, eerr := p.Execute(strings.TrimRight(line, "\r\n"))
			if eerr != nil {
				return eerr
			}
			if quit {
				return nil
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// closeDurable checkpoints and closes the session's durable store on exit,
// so the next start recovers from a compact checkpoint instead of a long
// WAL replay. Errors are reported, not fatal: the WAL already holds every
// acknowledged mutation.
func closeDurable(sys *els.System) {
	if err := sys.Checkpoint(); err != nil {
		fmt.Fprintln(os.Stderr, "elsrepl: checkpoint on exit:", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.Close(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "elsrepl: close:", err)
	}
}

// isTerminal reports whether stdin looks interactive (best-effort, stdlib
// only: a character device is a terminal, a pipe or file is not).
func isTerminal() bool {
	fi, err := os.Stdin.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}
