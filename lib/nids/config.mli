(** NIDS configuration.

    Build configurations by piping {!default} through the [with_*] smart
    constructors, then hand them to {!Pipeline.create} (which applies
    {!validate}).  The record stays public for this release so existing
    pattern-matching code keeps working; prefer the builders — direct
    record construction will lose that option when a field is next
    added. *)

type t = {
  honeypots : Ipaddr.t list;  (** registered decoy addresses *)
  unused : Ipaddr.prefix list;  (** declared unused address space *)
  scan_threshold : int;  (** distinct unused addresses before flagging *)
  classification_enabled : bool;
      (** [false] reproduces the paper's §5.4 mode: every packet is
          analyzed *)
  extraction_enabled : bool;
      (** [false] reproduces the reference-[5] style whole-payload
          analysis used for the efficiency comparison *)
  templates : Template.t list;
  min_payload : int;  (** payloads shorter than this are never analyzed *)
  reassemble : bool;
      (** track TCP flows from suspicious sources and analyze the
          reassembled stream, defeating exploit delivery that is split
          across segments *)
  verdict_cache_size : int;
      (** bound on the payload-keyed verdict cache that short-circuits
          extract+disassemble+match for repeated payloads (the worm
          outbreak shape); [0] disables caching.  Without a breaker,
          cached and uncached pipelines produce identical alerts; with
          one they may not, since a hit skips the breaker's
          bookkeeping. *)
  flow_alert_cache_size : int;
      (** bound on the per-flow alert-dedup table used in stream mode
          (LRU over flow-key^template tags); evictions are counted as
          [sanids_flow_alerted_evictions_total] *)
  stream_queue_capacity : int;
      (** bound on each worker's admission queue in
          {!Parallel.process_seq} — the memory ceiling of stream mode *)
  stream_drop_policy : Bqueue.policy;
      (** what a full admission queue does to new packets: shed the
          newest, shed the oldest, or apply backpressure ([Block], the
          lossless default).  Shed packets are counted as
          [sanids_shed_total{policy}]. *)
  analysis_budget : Budget.limits option;
      (** per-packet work ceiling for the analysis path (bytes
          extracted, instructions decoded, matcher steps, wall-clock
          deadline); [None] (the default) analyzes without bounds.
          Budget-truncated packets are counted as
          [sanids_budget_truncated_total{reason}]. *)
  breaker : Breaker.config option;
      (** per-template circuit breaking: a template whose step cap trips
          on consecutive packets is excluded for a cooldown ([None]
          disables breaking).  The step cap is the budget's
          [max_match_steps] when a budget is set, else
          {!Budget.default_limits}'s. *)
  degrade : bool;
      (** when analysis is cut short (budget trip) or templates are
          held open by the breaker, fall back to a cheap baseline
          pattern pass over the affected frames instead of silently
          reporting less; degraded packets are counted as
          [sanids_degraded_total{stage}] and their alerts carry
          {!Alert.t.degraded}. *)
  confirm : Sanids_confirm.Confirm.config option;
      (** dynamic confirmation: run every matcher hit in the sandboxed
          emulator under these budgets and demote verdicts the run
          refutes ([None], the default, keeps the pipeline pristine).
          Outcomes are counted as [sanids_confirm_total{outcome}] and
          timed in the [confirm] stage histogram; refuted matches are
          dropped from alerting, and only confirmed analyses enter the
          verdict cache. *)
  static_refute : bool;
      (** abstract pre-stage for confirmation: before each emulator run,
          abstractly execute the hit over the
          {!Sanids_ir.Absint.V} interval domain under the same budgets;
          hits the analysis proves the emulator must refute become
          {!Sanids_confirm.Confirm.Statically_refuted} without ever
          entering the emulator (counted under
          [sanids_confirm_total{outcome="static_refuted"}] and timed in
          the [static_refute] stage histogram).  Sound: a hit the
          emulator could confirm, or leave inconclusive, is never
          statically refuted.  Requires [confirm] to be set. *)
}

val default : t
(** Empty honeypot/unused lists, classification and extraction on, the
    full {!Template_lib.default_set}, [min_payload = 16],
    [verdict_cache_size = 4096], [flow_alert_cache_size = 65536],
    [stream_queue_capacity = 8192] with [Bqueue.Block] (stream mode is
    lossless unless a drop policy is chosen). *)

val with_honeypots : Ipaddr.t list -> t -> t
val with_unused : Ipaddr.prefix list -> t -> t
val with_templates : Template.t list -> t -> t
val with_classification : bool -> t -> t
val with_extraction : bool -> t -> t
val with_reassembly : bool -> t -> t

val with_verdict_cache : int -> t -> t
(** Size the verdict cache; [0] disables it. *)

val with_scan_threshold : int -> t -> t
val with_min_payload : int -> t -> t
val with_flow_alert_cache : int -> t -> t
val with_stream_queue : int -> t -> t
val with_stream_policy : Bqueue.policy -> t -> t
val with_budget : Budget.limits option -> t -> t
val with_breaker : Breaker.config option -> t -> t
val with_degrade : bool -> t -> t

val with_confirm : Sanids_confirm.Confirm.config option -> t -> t
(** Enable (or disable with [None]) the dynamic-confirmation stage. *)

val with_static_refute : bool -> t -> t
(** Toggle the abstract refutation pre-stage (needs confirmation on). *)

val spec_keys : string list
(** Every key {!of_spec} reads, in table order. *)

type flag = {
  key : string;  (** the {!of_spec} key *)
  doc : string;  (** its help text *)
  arg : [ `Switch of bool | `Value of string ];
      (** [`Switch b]: a boolean key whose flag takes no value and sets
          it to [b], the opposite of its default; [`Value docv]: the
          flag takes a value (named [docv] in help), read as
          [key=value] by {!of_spec} *)
}

val flags : flag list
(** The command-line face of every {!spec_keys} entry, in table order. *)

val of_spec : string -> (t -> t, string) result
(** [of_spec "key=value"] parses one configuration assignment into an
    updater — the single grammar behind the CLI's [--set] flag and the
    daemon's hot-reload files ({!Spec.assignment}).  The value is
    everything after the {e first} ['='], so the value of a
    [budget]/[breaker]/[confirm] key is the subsystem's own comma spec
    unchanged ([budget=bytes=65536,insns=100,steps=100000,deadline=0]).
    Keys: [honeypot] and [unused] (repeatable, appending), [classify],
    [extract], [reassemble], [degrade], [static_refute] (booleans),
    [scan_threshold], [min_payload], [verdict_cache],
    [flow_alert_cache], [queue] (integers), [drop_policy], [budget],
    [breaker], [confirm] (sub-specs; [confirm=default] enables
    confirmation with the defaults).  A sub-spec's error passes through
    unchanged (["budget: ..."]), so a bad flag and a rejected reload
    read identically. *)

val of_lines : string list -> (t -> t, string) result
(** {!of_spec} over a list of lines ({!Spec.lines}: [#] comments and
    blank lines skipped, errors prefixed with ["line N: "]), composed
    left to right. *)

val of_file : string -> (t -> t, string) result
(** {!of_lines} over a file's contents, parse errors prefixed with the
    path — what [sanids serve --config-file] loads at start and
    re-reads on every reload request (gated by {!lint} before swapping
    in). *)

val lint : t -> Sanids_staticlint.Finding.t list
(** Configuration findings, subject ["config"].

    Codes (stable):
    - [SL201] {e error} — an out-of-range core value: negative
      [verdict_cache_size], non-positive [scan_threshold],
      [flow_alert_cache_size] or [stream_queue_capacity], negative
      [min_payload].
    - [SL202] {e error} — invalid budget limits
      ({!Budget.validate_limits}).
    - [SL203] {e error} — invalid breaker settings
      ({!Breaker.validate_config}).
    - [SL204] {e error} — [degrade] without any mechanism (budget or
      breaker) that could trigger degradation.
    - [SL205] {e warn} — a verdict cache too small to be useful
      (between 1 and 63 entries).
    - [SL206] {e warn} — a budget or breaker without [degrade]:
      truncated packets are silently under-analyzed.
    - [SL207] {e error} — invalid confirmation settings
      ({!Sanids_confirm.Confirm.validate_config}).
    - [SL208] {e warn} — a confirm step budget above 1M: a hostile
      packet can hold the analysis thread for the whole budget.
    - [SL209] {e error} — [static_refute] without [confirm]: the
      pre-stage has no verdict stage to short-circuit. *)

val validate : t -> (t, string) result
(** Reject configurations that would silently misbehave rather than
    letting them: the first [Error]-severity {!lint} finding, as its
    bare message.  Warnings do not reject. *)
