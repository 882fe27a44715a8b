(** Stage-scoped timer spans.

    A {!stage} is resolved once at setup: the registry histogram
    [sanids_stage_<name>_seconds], the stage's name for tracing and its
    sampler.  On the hot path a span is two calls with no closure and
    no allocation: [let t0 = start st in ... ; stop st t0].  Stamps
    are immediate [int] nanoseconds from a monotonic clock, and the
    histogram sums integer nanoseconds.  A caller
    that wants the duration recorded when the timed code raises stops
    the span on that path too, with [match ... with exception], which
    does not allocate either.

    A sampled stage (for stages cheaper than two clock reads, such as
    classification) reads the clock on about 1 call in
    {!sample_period}, at gaps drawn from the stage's own xorshift
    generator; an untimed call records the stage's last timed duration
    instead.  So the count is exact, the bucket counts sum to it, the
    {!Snapshot.merge} law is untouched and the sum is an unbiased
    estimate.

    When a tracer is attached, every call is timed and emits one JSONL
    trace event, subject to the tracer's sampling knob:
    [{"span":"match","ts":<start, unix seconds>,"dur_us":<duration, µs>,
      "seq":<emitted-event index>}].  [ts] is the only wall-clock read,
    and it is made only for a traced span. *)

type tracer

val tracer : ?sample:int -> out_channel -> tracer
(** A tracer emitting every [sample]-th span (default 1: every span) to
    the channel.  Emission is serialized with a mutex, so one tracer may
    be shared across domains.
    @raise Invalid_argument when [sample <= 0]. *)

val emitted : tracer -> int
(** Events written so far. *)

val flush : tracer -> unit

val sample_period : int
(** 16: a sampled stage times about one call in this many. *)

type stage
(** A pre-resolved stage timer: histogram handle, name, tracer and
    sampler state (a few mutable ints).  Like the histogram it records
    into, a stage is single-domain. *)

val stage : ?tracer:tracer -> ?sampled:bool -> Registry.t -> string -> stage
(** Register (or find) [sanids_stage_<name>_seconds] and bundle it with
    the name for tracing.  [sampled] (default [false]) times about 1
    call in {!sample_period} and says so in the histogram's help text;
    it is ignored when [tracer] is given. *)

val start : stage -> int
(** Open a span: the monotonic stamp, or a sentinel when the sampler
    leaves this call untimed. *)

val stop : stage -> int -> unit
(** [stop st (start st)] closes a span: records the nanoseconds since
    [t0] on the monotonic clock, or
    the last timed duration for an untimed call, and emits a trace
    event when a tracer is attached. *)

val observe_ns : stage -> int -> unit
(** [observe_ns st d] records one call of [d] ns through the stage's
    sampler, exactly as [start]/[stop] would around a call that took
    [d]: an untimed call records the last timed duration instead.  It
    never reads the clock, so tests can drive the sampler with known
    durations. *)

val with_ : ?tracer:tracer -> Registry.t -> string -> (unit -> 'a) -> 'a
(** [with_ ?tracer reg stage f] runs [f] inside an exact span named
    [stage], recording its duration even when [f] raises.  It resolves
    the stage on every call (a name concat, a help-string format and a
    registry lookup), so it is for cold paths; per-packet code resolves
    a {!stage} at setup and uses {!start}/{!stop}.  The stage name must
    make [sanids_stage_<stage>_seconds] a valid metric name. *)

val metric_of_stage : string -> string
(** ["match" -> "sanids_stage_match_seconds"] — the histogram a span
    records into. *)
