// Package repl implements the command processor behind cmd/elsrepl: an
// interactive shell for loading data, declaring statistics, and exploring
// how each estimation algorithm sees a query. The processor is pure
// (reads lines, writes to an io.Writer), so it is fully testable.
package repl

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	els "repro"
	"repro/internal/governor"
)

// Processor holds the session state of one REPL.
type Processor struct {
	sys     *els.System
	algo    els.Algorithm
	out     io.Writer
	dataDir string // durable catalog directory; "" for in-memory sessions

	replicas    map[string]*els.Replica // attached read replicas by ID
	replicaDirs map[string]string       // replica ID → data directory
}

// New creates a processor writing to out, starting with Algorithm ELS.
func New(out io.Writer) *Processor {
	return &Processor{sys: els.New(), algo: els.AlgorithmELS, out: out}
}

// NewAt creates a processor backed by a durable catalog directory
// (els.Open): recovered statistics are available immediately, and every
// declared mutation is written ahead and fsynced before it is
// acknowledged. The "recover" command reopens the same directory.
func NewAt(out io.Writer, dataDir string) (*Processor, error) {
	sys, err := els.Open(dataDir)
	if err != nil {
		return nil, err
	}
	return &Processor{sys: sys, algo: els.AlgorithmELS, out: out, dataDir: dataDir}, nil
}

// System exposes the underlying system (used by tests and by callers that
// preload data).
func (p *Processor) System() *els.System { return p.sys }

// Execute runs one input line. It returns true when the session should
// end. Errors are printed to the output writer, not returned, so a REPL
// session survives bad input; the error return is reserved for I/O
// failures on the writer.
func (p *Processor) Execute(line string) (quit bool, err error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "--") || strings.HasPrefix(line, "#") {
		return false, nil
	}
	fields := strings.Fields(line)
	cmd := strings.ToLower(fields[0])
	switch cmd {
	case "quit", "exit", "\\q":
		return true, nil
	case "help", "\\?":
		return false, p.help()
	case "algo":
		return false, p.setAlgo(fields[1:])
	case "algos":
		for _, a := range els.Algorithms() {
			fmt.Fprintln(p.out, a)
		}
		return false, nil
	case "limits":
		return false, p.limits(fields[1:])
	case "serving":
		return false, p.serving()
	case "checkpoint":
		return false, p.checkpoint()
	case "recover":
		return false, p.recoverCatalog(fields[1:])
	case "replica":
		return false, p.replica(fields[1:])
	case "declare":
		return false, p.declare(fields[1:])
	case "load":
		return false, p.load(fields[1:])
	case "gen":
		return false, p.gen(fields[1:])
	case "tables":
		return false, p.tables()
	case "stats":
		return false, p.stats(fields[1:])
	case "explain":
		return false, p.explain(strings.TrimSpace(line[len("explain"):]))
	case "estimate":
		return false, p.estimate(strings.TrimSpace(line[len("estimate"):]))
	case "analyze":
		return false, p.analyze(strings.TrimSpace(line[len("analyze"):]))
	case "compare":
		return false, p.compare(strings.TrimSpace(line[len("compare"):]))
	case "select":
		return false, p.run(line)
	default:
		p.printf("unknown command %q (try: help)\n", fields[0])
		return false, nil
	}
}

func (p *Processor) printf(format string, args ...any) {
	fmt.Fprintf(p.out, format, args...)
}

func (p *Processor) help() error {
	p.printf(`commands:
  declare <name> <card> col=d [col=d ...]   register statistics-only table
  load <name> <file.csv> [header] [hist=N]  load + ANALYZE a CSV file
  gen <name> <col> <dist> <rows> <domain> [theta=T] [seed=S]
                                            generate a synthetic table
  tables                                    list tables
  stats <name>                              show a table's statistics
  algo <name>                               set the estimation algorithm
  algos                                     list algorithms
%s                                            set per-query budgets (memory=N is
                                            the byte budget; over it, hash joins
                                            partition in memory), admission
                                            control, replica staleness,
                                            and the columnar/plan-cache engine
                                            switches ("limits off" clears)
  serving                                   show serving-layer counters
                                            (catalog version, admission, retries,
                                            circuit breaker, plan cache,
                                            durability)
  checkpoint                                compact the WAL into an atomic
                                            checkpoint (durable sessions)
  recover [dir]                             reopen the durable catalog, replaying
                                            checkpoint + WAL (crash recovery)
  replica attach <dir>                      open <dir> as a read replica and ship
                                            this session's WAL to it
  replica status                            per-replica version/lag/quarantine and
                                            shipper counters
  replica promote <id>                      fail over: the replica becomes the
                                            session's writable primary
  estimate <sql>                            estimate without executing
  explain <sql>                             show closure + plan + estimates
  analyze <sql>                             execute and show est-vs-actual per node
  SELECT ...                                plan and execute the query
  compare <sql>                             run under ELS/SM/SM+PTC/SSS
  quit
`, limitsSynopsis())
	return nil
}

func (p *Processor) setAlgo(args []string) error {
	if len(args) != 1 {
		p.printf("usage: algo <name>; current: %s\n", p.algo)
		return nil
	}
	a, err := els.ParseAlgorithm(args[0])
	if err != nil {
		p.printf("unknown algorithm %q; use one of %v\n", args[0], els.Algorithms())
		return nil
	}
	p.algo = a
	p.printf("algorithm: %s\n", a)
	return nil
}

// limitArgs renders every knob of the limits table as "[key=ARG]".
func limitArgs() []string {
	args := make([]string, len(governor.Knobs))
	for i, k := range governor.Knobs {
		args[i] = "[" + k.Key + "=" + k.Arg + "]"
	}
	return args
}

func limitsUsage() string {
	return "usage: limits " + strings.Join(limitArgs(), " ") + " | limits off"
}

// limitsSynopsis is the help text's limits entry: the knobs wrapped to the
// help's width under the verb.
func limitsSynopsis() string {
	const width = 72
	var b strings.Builder
	line := "  limits"
	for _, arg := range limitArgs() {
		if len(line)+1+len(arg) > width {
			b.WriteString(line + "\n")
			line = "        "
		}
		line += " " + arg
	}
	b.WriteString(line + "\n")
	return b.String()
}

// formatLimits renders one line of the full limit set, budgets and
// admission control alike.
func formatLimits(l els.Limits) string {
	fields := make([]string, len(governor.Knobs))
	for i, k := range governor.Knobs {
		fields[i] = k.Key + "=" + k.Format(l)
	}
	return strings.Join(fields, " ")
}

// limits shows or updates the system's per-query resource budgets and
// admission control. With no arguments it prints the current limits;
// "limits off" clears everything.
func (p *Processor) limits(args []string) error {
	if len(args) == 0 {
		l := p.sys.Limits()
		if formatLimits(l) == formatLimits(els.Limits{}) {
			p.printf("no limits\n")
			return nil
		}
		p.printf("%s\n", formatLimits(l))
		return nil
	}
	if len(args) == 1 && strings.EqualFold(args[0], "off") {
		p.sys.SetLimits(els.Limits{})
		p.printf("limits cleared\n")
		return nil
	}
	l := p.sys.Limits()
	for _, kv := range args {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 || parts[1] == "" {
			p.printf("malformed limit %q (want key=value)\n%s\n", kv, limitsUsage())
			return nil
		}
		knob, ok := governor.FindKnob(strings.ToLower(parts[0]))
		if !ok {
			keys := make([]string, len(governor.Knobs))
			for i, k := range governor.Knobs {
				keys[i] = k.Key
			}
			p.printf("unknown limit %q (want %s)\n", parts[0], strings.Join(keys, ", "))
			return nil
		}
		if err := knob.Parse(&l, parts[1]); err != nil {
			p.printf("%v\n%s\n", err, limitsUsage())
			return nil
		}
	}
	p.sys.SetLimits(l)
	// Replica staleness is checked replica-side; keep attached replicas on
	// the session's limit set.
	for _, rep := range p.replicas {
		rep.SetLimits(l)
	}
	p.printf("limits set: %s\n", formatLimits(l))
	return nil
}

// serving prints the serving-layer counters: catalog version, admission,
// queueing, retries, and the circuit breaker.
func (p *Processor) serving() error {
	st := p.sys.RobustnessStats()
	p.printf("catalog version: %d\n", st.CatalogVersion)
	p.printf("admitted=%d shed-queue-full=%d shed-queue-timeout=%d rejected-closed=%d\n",
		st.Admitted, st.ShedQueueFull, st.ShedQueueTimeout, st.RejectedClosed)
	p.printf("in-flight=%d waiting=%d queue-wait=%s\n", st.InFlight, st.Waiting, st.QueueWait)
	p.printf("retries=%d retry-successes=%d\n", st.Retries, st.RetrySuccesses)
	p.printf("breaker=%s opens=%d rejections=%d probes=%d\n",
		st.BreakerState, st.BreakerOpens, st.BreakerRejections, st.BreakerProbes)
	p.printf("memory: spilled-queries=%d spilled-bytes=%d peak-query-bytes=%d\n",
		st.SpilledQueries, st.SpilledBytes, st.PeakQueryBytes)
	c := p.sys.CacheStats()
	p.printf("plan-cache: hits=%d misses=%d hit-rate=%.3f text-hits=%d entries=%d/%d evictions=%d invalidations=%d\n",
		c.Hits, c.Misses, c.HitRate(), c.TextHits, c.Entries, c.Capacity, c.Evictions, c.Invalidations)
	if p.sys.Durable() {
		d := p.sys.DurabilityStats()
		frozen := ""
		if d.Poisoned != nil {
			frozen = " FROZEN (reopen to recover)"
		}
		p.printf("durable: wal=%dB checkpoint-version=%d records-since-checkpoint=%d replayed-records=%d wal-appended=%dB%s\n",
			d.WALSizeBytes, d.CheckpointVersion, d.RecordsSinceCheckpoint,
			d.ReplayedRecords, d.WALBytes, frozen)
	}
	return nil
}

// checkpoint compacts the durable store's WAL into an atomic checkpoint of
// the current catalog version.
func (p *Processor) checkpoint() error {
	if err := p.sys.Checkpoint(); err != nil {
		p.printf("error: %v\n", err)
		return nil
	}
	d := p.sys.DurabilityStats()
	p.printf("checkpoint written: version %d (wal %dB)\n", d.CheckpointVersion, d.WALSizeBytes)
	return nil
}

// recoverCatalog reopens a durable catalog directory — the session's own
// by default, or an explicit one — replaying its checkpoint and WAL suffix
// exactly as a post-crash restart would. The previous system is drained
// and closed; in-memory artifacts (loaded CSV data, indexes) do not
// survive, matching what a real crash loses.
func (p *Processor) recoverCatalog(args []string) error {
	dir := p.dataDir
	if len(args) == 1 {
		dir = args[0]
	} else if len(args) > 1 {
		p.printf("usage: recover [dir]\n")
		return nil
	}
	if dir == "" {
		p.printf("no data directory: start with -data-dir or use \"recover <dir>\"\n")
		return nil
	}
	sys, err := els.Open(dir)
	if err != nil {
		p.printf("error: %v\n", err)
		return nil
	}
	//ctxflow:allow repl session owns both systems end-to-end; bounded drain of the one being replaced
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if cerr := p.sys.Close(ctx); cerr != nil {
		p.printf("note: closing previous system: %v\n", cerr)
	}
	p.sys, p.dataDir = sys, dir
	d := sys.DurabilityStats()
	torn := ""
	if d.TornTailRecovered {
		torn = ", torn wal tail truncated"
	}
	p.printf("recovered %s: catalog version %d (checkpoint %d + %d wal records%s)\n",
		dir, d.LastVersion, d.CheckpointVersion, d.RecordsSinceCheckpoint, torn)
	return nil
}

const replicaUsage = "usage: replica attach <dir> | replica status | replica promote <id>"

// replica dispatches the replication subcommands: attach opens a
// directory as a read replica of the session's durable catalog, status
// reports the shipping layer, and promote fails the session over to a
// replica.
func (p *Processor) replica(args []string) error {
	if len(args) == 0 {
		p.printf("%s\n", replicaUsage)
		return nil
	}
	switch strings.ToLower(args[0]) {
	case "attach":
		return p.replicaAttach(args[1:])
	case "status":
		return p.replicaStatus()
	case "promote":
		return p.replicaPromote(args[1:])
	default:
		p.printf("unknown replica subcommand %q\n%s\n", args[0], replicaUsage)
		return nil
	}
}

// replicaAttach opens (or heals) a read replica and ships the session's
// WAL to it. Re-attaching an already-tracked replica ID is the explicit
// quarantine-heal path; it never reopens the directory a live replica
// still holds.
func (p *Processor) replicaAttach(args []string) error {
	if len(args) != 1 {
		p.printf("%s\n", replicaUsage)
		return nil
	}
	dir := args[0]
	id := filepath.Base(filepath.Clean(dir))
	if old, ok := p.replicas[id]; ok {
		if err := p.sys.AttachReplica(old); err != nil {
			p.printf("error: %v\n", err)
			return nil
		}
		p.printf("replica %s re-attached (resync requested)\n", id)
		return nil
	}
	rep, err := els.OpenReplica(dir)
	if err != nil {
		p.printf("error: %v\n", err)
		return nil
	}
	if err := p.sys.AttachReplica(rep); err != nil {
		//ctxflow:allow repl session owns the replica end-to-end; bounded drain of a failed attach
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		rep.Close(ctx)
		cancel()
		p.printf("error: %v\n", err)
		return nil
	}
	rep.SetLimits(p.sys.Limits())
	if p.replicas == nil {
		p.replicas = map[string]*els.Replica{}
		p.replicaDirs = map[string]string{}
	}
	p.replicas[id] = rep
	p.replicaDirs[id] = dir
	p.printf("replica %s attached at version %d (resyncing to %d)\n",
		id, rep.CatalogVersion(), p.sys.CatalogVersion())
	return nil
}

// replicaStatus prints the primary's digest identity, the shipper
// counters, and one line per follower.
func (p *Processor) replicaStatus() error {
	if len(p.replicas) == 0 {
		p.printf("no replicas attached\n")
		return nil
	}
	ver, dig, err := p.sys.CatalogDigest()
	if err != nil {
		p.printf("error: %v\n", err)
		return nil
	}
	p.printf("primary: version=%d digest=%.12s\n", ver, dig)
	st := p.sys.ReplicationStats()
	p.printf("shipper: shipped=%d resyncs=%d queue-drops=%d link-drops=%d\n",
		st.FramesShipped, st.Resyncs, st.QueueDrops, st.LinkDrops)
	for _, f := range st.Followers {
		flags := ""
		if f.Quarantined {
			flags += " QUARANTINED (replica attach <dir> to heal)"
		}
		if f.Down {
			flags += " DOWN (reopen its directory)"
		}
		p.printf("replica %s: version=%d known=%d lag=%d applied=%d full=%d served=%d stale=%d%s\n",
			f.ID, f.Version, f.Known, f.Lag, f.FramesApplied, f.FullFrames,
			f.ServedReads, f.StaleReads, flags)
	}
	return nil
}

// replicaPromote fails the session over to an attached replica: the
// replica becomes the writable primary, the old primary is drained and
// closed, and every surviving replica is re-pointed at the new primary.
func (p *Processor) replicaPromote(args []string) error {
	if len(args) != 1 {
		p.printf("%s\n", replicaUsage)
		return nil
	}
	id := args[0]
	rep, ok := p.replicas[id]
	if !ok {
		p.printf("no attached replica %q (try: replica status)\n", id)
		return nil
	}
	sys, err := rep.Promote()
	if err != nil {
		p.printf("error: %v\n", err)
		return nil
	}
	delete(p.replicas, id)
	dir := p.replicaDirs[id]
	delete(p.replicaDirs, id)
	//ctxflow:allow repl session owns both systems end-to-end; bounded drain of the demoted primary
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if cerr := p.sys.Close(ctx); cerr != nil {
		p.printf("note: closing previous primary: %v\n", cerr)
	}
	p.sys, p.dataDir = sys, dir
	for rid, r := range p.replicas {
		if aerr := p.sys.AttachReplica(r); aerr != nil {
			p.printf("note: re-attaching replica %s: %v\n", rid, aerr)
		}
	}
	p.printf("replica %s promoted: session now writes %s at version %d\n",
		id, dir, sys.CatalogVersion())
	return nil
}

func (p *Processor) declare(args []string) error {
	if len(args) < 2 {
		p.printf("usage: declare <name> <card> col=d [col=d ...]\n")
		return nil
	}
	card, err := strconv.ParseFloat(args[1], 64)
	if err != nil {
		p.printf("bad cardinality %q\n", args[1])
		return nil
	}
	cols := map[string]float64{}
	for _, kv := range args[2:] {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			p.printf("bad column spec %q (want col=distinct)\n", kv)
			return nil
		}
		d, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			p.printf("bad distinct count %q\n", parts[1])
			return nil
		}
		cols[parts[0]] = d
	}
	if err := p.sys.DeclareStats(args[0], card, cols); err != nil {
		p.printf("error: %v\n", err)
		return nil
	}
	p.printf("declared %s (card %g, %d columns)\n", args[0], card, len(cols))
	return nil
}

func (p *Processor) load(args []string) error {
	if len(args) < 2 {
		p.printf("usage: load <name> <file.csv> [header] [hist=N]\n")
		return nil
	}
	header := false
	hist := 0
	for _, opt := range args[2:] {
		switch {
		case strings.EqualFold(opt, "header"):
			header = true
		case strings.HasPrefix(strings.ToLower(opt), "hist="):
			n, err := strconv.Atoi(opt[5:])
			if err != nil {
				p.printf("bad hist option %q\n", opt)
				return nil
			}
			hist = n
		default:
			p.printf("unknown option %q\n", opt)
			return nil
		}
	}
	if err := p.sys.LoadCSV(args[0], args[1], header, hist); err != nil {
		p.printf("error: %v\n", err)
		return nil
	}
	card, _ := p.sys.TableCard(args[0])
	p.printf("loaded %s (%g rows)\n", args[0], card)
	return nil
}

func (p *Processor) gen(args []string) error {
	if len(args) < 5 {
		p.printf("usage: gen <name> <col> <dist> <rows> <domain> [theta=T] [seed=S]\n")
		return nil
	}
	rows, err1 := strconv.Atoi(args[3])
	domain, err2 := strconv.Atoi(args[4])
	if err1 != nil || err2 != nil {
		p.printf("bad rows/domain\n")
		return nil
	}
	theta := 0.0
	seed := int64(1)
	for _, opt := range args[5:] {
		switch {
		case strings.HasPrefix(strings.ToLower(opt), "theta="):
			if theta, err1 = strconv.ParseFloat(opt[6:], 64); err1 != nil {
				p.printf("bad theta %q\n", opt)
				return nil
			}
		case strings.HasPrefix(strings.ToLower(opt), "seed="):
			n, err := strconv.ParseInt(opt[5:], 10, 64)
			if err != nil {
				p.printf("bad seed %q\n", opt)
				return nil
			}
			seed = n
		default:
			p.printf("unknown option %q\n", opt)
			return nil
		}
	}
	if err := p.sys.GenerateTable(args[0], args[1], args[2], rows, domain, theta, seed); err != nil {
		p.printf("error: %v\n", err)
		return nil
	}
	p.printf("generated %s (%d rows, %s)\n", args[0], rows, args[2])
	return nil
}

func (p *Processor) tables() error {
	names := p.sys.Tables()
	if len(names) == 0 {
		p.printf("no tables\n")
		return nil
	}
	for _, n := range names {
		card, _ := p.sys.TableCard(n)
		p.printf("%s  card=%g\n", n, card)
	}
	return nil
}

func (p *Processor) stats(args []string) error {
	if len(args) != 1 {
		p.printf("usage: stats <table>\n")
		return nil
	}
	card, err := p.sys.TableCard(args[0])
	if err != nil {
		p.printf("error: %v\n", err)
		return nil
	}
	p.printf("%s: card=%g\n", args[0], card)
	cols, err := p.sys.TableColumns(args[0])
	if err != nil {
		p.printf("error: %v\n", err)
		return nil
	}
	sort.Strings(cols)
	for _, c := range cols {
		d, _ := p.sys.ColumnDistinct(args[0], c)
		p.printf("  %s: distinct=%g\n", c, d)
	}
	return nil
}

func (p *Processor) explain(sql string) error {
	if sql == "" {
		p.printf("usage: explain <sql>\n")
		return nil
	}
	out, err := p.sys.Explain(sql, p.algo)
	if err != nil {
		p.printf("error: %v\n", err)
		return nil
	}
	p.printf("%s", out)
	return nil
}

func (p *Processor) estimate(sql string) error {
	if sql == "" {
		p.printf("usage: estimate <sql>\n")
		return nil
	}
	est, err := p.sys.Estimate(sql, p.algo)
	if err != nil {
		p.printf("error: %v\n", err)
		return nil
	}
	p.printf("[%s] estimated size: %g (order %s)\n",
		est.Algorithm, est.FinalSize, strings.Join(est.JoinOrder, "⋈"))
	return nil
}

func (p *Processor) analyze(sql string) error {
	if sql == "" {
		p.printf("usage: analyze <sql>\n")
		return nil
	}
	res, err := p.sys.Query(sql, p.algo)
	if err != nil {
		p.printf("error: %v\n", err)
		return nil
	}
	p.printf("%s", res.FormatAnalyze())
	p.printf("[%s] %d row(s) in %s\n", res.Estimate.Algorithm, res.Count, res.Elapsed.Round(1000))
	return nil
}

func (p *Processor) run(sql string) error {
	res, err := p.sys.Query(sql, p.algo)
	if err != nil {
		p.printf("error: %v\n", err)
		return nil
	}
	if len(res.Columns) > 0 {
		p.printf("%s\n", strings.Join(res.Columns, "\t"))
		for _, row := range res.Rows {
			p.printf("%s\n", strings.Join(row, "\t"))
		}
	}
	p.printf("[%s] %d row(s), estimated %g, scanned %d tuples in %s\n",
		res.Estimate.Algorithm, res.Count, res.Estimate.FinalSize,
		res.TuplesScanned, res.Elapsed.Round(1000))
	return nil
}

func (p *Processor) compare(sql string) error {
	if sql == "" {
		p.printf("usage: compare <sql>\n")
		return nil
	}
	results, err := p.sys.CompareAlgorithms(sql)
	if err != nil {
		p.printf("error: %v\n", err)
		return nil
	}
	p.printf("%-10s %-14s %14s %12s %12s\n", "algo", "order", "estimate", "tuples", "elapsed")
	for _, r := range results {
		p.printf("%-10s %-14s %14g %12d %12s\n",
			r.Estimate.Algorithm, strings.Join(r.Estimate.JoinOrder, "⋈"),
			r.Estimate.FinalSize, r.TuplesScanned, r.Elapsed.Round(1000))
	}
	return nil
}
