// Server-side telemetry: the metric set `dbpl serve` maintains on every
// request, and how the hot path updates it. All metrics live in one
// telemetry.Registry (shared with the persistence layer's dbpl_persist_*
// set when the store was opened through telemetry.InstrumentFS), are
// always on, and cost one or two uncontended atomics per update —
// EXPERIMENTS.md E15 measures the total against the uninstrumented seed.
package server

import (
	"time"

	"dbpl/internal/plan"
	"dbpl/internal/server/wire"
	"dbpl/internal/telemetry"
)

// numPlanPaths sizes the planner-decision counter array.
const numPlanPaths = int(plan.PathIndex) + 1

// serverMetrics is the per-server instrument set, pre-resolved into
// arrays indexed by opcode and error code so the request loop never
// touches the registry's maps. Unknown opcodes share one "unknown"
// series — a hostile peer must not be able to mint unbounded label
// cardinality.
type serverMetrics struct {
	reg *telemetry.Registry

	requests [len(wire.Ops)]*telemetry.Counter   // per-opcode request count
	latency  [len(wire.Ops)]*telemetry.Histogram // per-opcode request latency
	unknown  *telemetry.Counter

	errors [wire.NumCodes]*telemetry.Counter // per-code error responses

	shed     *telemetry.Counter // admission-control refusals
	degraded *telemetry.Counter // writes refused by the poisoned write path
	idemHits *telemetry.Counter // retried writes answered from the dedup cache

	commits       *telemetry.Counter   // durable commit groups published
	commitSeconds *telemetry.Histogram // enqueue to durable publication (fsync-dominated)
	commitOps     *telemetry.Histogram // operations per commit group

	// Group commit (coalesce.go). batchGroups is the size of each
	// promoted batch in commit groups; fsyncsSaved counts the fsyncs
	// coalescing avoided (batch size - 1, summed); commitQueueWait is how
	// long each commit sat queued before its batch began (the follower
	// wait); commitSyncSeconds is the shared batch fsync (the leader
	// wait).
	batchGroups       *telemetry.Histogram
	fsyncsSaved       *telemetry.Counter
	commitQueueWait   *telemetry.Histogram
	commitSyncSeconds *telemetry.Histogram

	inflight *telemetry.Gauge // requests admitted and not yet answered
	sessions *telemetry.Gauge // open connections

	// Planner decisions, pre-resolved per path (a closed set — no
	// cardinality hazard), and index-maintenance work done at commit.
	planChosen    [numPlanPaths]*telemetry.Counter // GET access-path picks
	joinNested    *telemetry.Counter               // JOIN planned nested-loop
	joinPartition *telemetry.Counter               // JOIN planned build/probe
	indexTouched  *telemetry.Counter               // index entries touched at commit

	// Replication. The shipped side counts what this server streamed to
	// followers; the applied side counts what this server (as a follower)
	// verified and applied; reconnects counts the follow loop's re-dials.
	replStreams       *telemetry.Gauge   // live REPLICATE subscriptions
	replGroupsShipped *telemetry.Counter // commit groups streamed out
	replBytesShipped  *telemetry.Counter // raw log bytes streamed out
	replHeartbeats    *telemetry.Counter // idle keepalives sent
	replGroupsApplied *telemetry.Counter // groups verified + applied (follower)
	replBytesApplied  *telemetry.Counter // raw log bytes applied (follower)
	replReconnects    *telemetry.Counter // follow-loop re-dials after a failure
	replReadOnly      *telemetry.Counter // writes refused with CodeReadOnly
	fencedRefusals    *telemetry.Counter // writes refused with CodeFenced (demoted primary)

	// replApplyDelay is the follower-side commit-to-apply lag: for each
	// traced commit group applied, now minus the primary's commit
	// wall-clock carried in the REPDATA frame. Clock skew between
	// the two hosts leaks straight into it — it is a lag indicator, not a
	// precision measurement; negative skew clamps to zero.
	replApplyDelay *telemetry.Histogram
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	m := &serverMetrics{reg: reg}
	for op, p := range wire.Ops {
		if p.Name == "" {
			continue
		}
		label := `{op="` + p.Name + `"}`
		m.requests[op] = reg.Counter("dbpl_server_requests_total" + label)
		m.latency[op] = reg.Histogram("dbpl_server_request_seconds"+label,
			telemetry.UnitDuration, telemetry.DurationBuckets)
	}
	m.unknown = reg.Counter(`dbpl_server_requests_total{op="unknown"}`)
	for code := wire.CodeBadFrame; int(code) < wire.NumCodes; code++ {
		m.errors[code] = reg.Counter(`dbpl_server_errors_total{code="` + code.String() + `"}`)
	}
	m.shed = reg.Counter("dbpl_server_shed_total")
	m.degraded = reg.Counter("dbpl_server_degraded_refusals_total")
	m.idemHits = reg.Counter("dbpl_server_idem_hits_total")
	m.commits = reg.Counter("dbpl_server_commits_total")
	m.commitSeconds = reg.Histogram("dbpl_server_commit_seconds",
		telemetry.UnitDuration, telemetry.DurationBuckets)
	m.commitOps = reg.Histogram("dbpl_server_commit_group_ops",
		telemetry.UnitCount, telemetry.SizeBuckets)
	m.batchGroups = reg.Histogram("dbpl_commit_batch_groups",
		telemetry.UnitCount, telemetry.SizeBuckets)
	m.fsyncsSaved = reg.Counter("dbpl_commit_fsyncs_saved_total")
	m.commitQueueWait = reg.Histogram("dbpl_commit_queue_wait_seconds",
		telemetry.UnitDuration, telemetry.DurationBuckets)
	m.commitSyncSeconds = reg.Histogram("dbpl_commit_sync_seconds",
		telemetry.UnitDuration, telemetry.DurationBuckets)
	m.inflight = reg.Gauge("dbpl_server_inflight")
	m.sessions = reg.Gauge("dbpl_server_sessions")
	for p := plan.PathExtent; int(p) < numPlanPaths; p++ {
		m.planChosen[p] = reg.Counter(`dbpl_plan_chosen_total{path="` + p.String() + `"}`)
	}
	m.joinNested = reg.Counter(`dbpl_plan_join_total{path="nested"}`)
	m.joinPartition = reg.Counter(`dbpl_plan_join_total{path="partition"}`)
	m.indexTouched = reg.Counter("dbpl_index_entries_touched_total")
	m.replStreams = reg.Gauge("dbpl_repl_streams")
	m.replGroupsShipped = reg.Counter("dbpl_repl_groups_shipped_total")
	m.replBytesShipped = reg.Counter("dbpl_repl_bytes_shipped_total")
	m.replHeartbeats = reg.Counter("dbpl_repl_heartbeats_total")
	m.replGroupsApplied = reg.Counter("dbpl_repl_groups_applied_total")
	m.replBytesApplied = reg.Counter("dbpl_repl_bytes_applied_total")
	m.replReconnects = reg.Counter("dbpl_repl_reconnects_total")
	m.replReadOnly = reg.Counter("dbpl_repl_readonly_refusals_total")
	m.fencedRefusals = reg.Counter("dbpl_repl_fenced_refusals_total")
	m.replApplyDelay = reg.Histogram("dbpl_repl_apply_delay_seconds",
		telemetry.UnitDuration, telemetry.DurationBuckets)

	// Operator documentation for the principal families, surfaced as
	// # HELP lines on the /metrics exposition.
	for name, help := range map[string]string{
		"dbpl_server_requests_total":     "requests served, by opcode",
		"dbpl_server_request_seconds":    "request latency by opcode, admission to response write",
		"dbpl_server_errors_total":       "error responses, by wire error code",
		"dbpl_server_commit_seconds":     "commit latency, enqueue to durable publication",
		"dbpl_server_commits_total":      "durable commit groups published",
		"dbpl_commit_queue_wait_seconds": "time a commit sat queued before its batch began",
		"dbpl_commit_sync_seconds":       "batch fsync latency, shared by every group in the batch",
		"dbpl_commit_batch_groups":       "commit groups coalesced per shared fsync",
		"dbpl_repl_apply_delay_seconds":  "follower lag: primary commit wall-clock to local apply",
		"dbpl_trace_total":               "traces retained in the in-memory ring",
	} {
		reg.SetHelp(name, help)
	}
	return m
}

// observe records one answered request: the per-opcode count and
// latency, and the error code when the response is an error frame. A
// non-zero trace stamps the latency bucket's exemplar so an operator
// can jump from a histogram outlier to the span tree that produced it.
func (m *serverMetrics) observe(op byte, d time.Duration, respOp byte, respFields [][]byte, trace uint64) {
	if int(op) < len(m.requests) && m.requests[op] != nil {
		m.requests[op].Inc()
		m.latency[op].ObserveDurationExemplar(d, trace)
	} else {
		m.unknown.Inc()
	}
	if respOp == wire.OpError && len(respFields) > 0 && len(respFields[0]) == 1 {
		if code := wire.Code(respFields[0][0]); code >= wire.CodeBadFrame && int(code) < wire.NumCodes {
			m.errors[code].Inc()
		}
	}
}
