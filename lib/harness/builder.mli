(** Declarative test builder: one immutable value that composes a protocol
    {!stack}, a {!workload}, an {!Adversity.t} plan (plus conditional
    {!boost} multipliers), a detector source, {!checker} policies and a
    search budget — and one interpreter, {!run}, behind every way this
    repository builds a run.  {!Scenario}'s [run_*] entrypoints are thin
    presets over builders, [Explore.Explorer] generates and shrinks builder
    values, and the [ecsim] subcommands decode their flags (or a
    [--spec FILE]) into one.

    Builders made of plain data (a {!Decl} base, no escape hatches) have a
    stable text form ({!to_lines}/{!of_lines}), the one format findings are
    written in.  {!of_lines} also reads the legacy
    ["ecsim-explore-repro v1"] files earlier explorers wrote, and {!replay}
    judges either form byte-identically (enforced by the differential
    tests in [test/test_builder.ml]). *)

open Simulator
open Simulator.Types
open Ec_core

(** Base delay model, as data (a {!Simulator.Net.model} consumes
    randomness differently per constructor, so the distinction must
    survive serialization byte-exactly). *)
type delay_model = Constant of int | Uniform of { min_d : int; max_d : int }

type decl_base = {
  n : int;
  seed : int;
  deadline : time;
  timer_period : int;
  delay : delay_model;
}

(** The declarative base scenario, or an arbitrary prebuilt setup (escape
    hatch for the {!Scenario} presets; not serializable). *)
type base = Decl of decl_base | Opaque of Stacks.setup

(** Which protocol stack the run drives; mirrors the [Stacks.run_*]
    catalogue. *)
type stack =
  | Etob of Stacks.etob_impl  (** bare ETOB: Algorithm 5 / Paxos / 1-over-4 *)
  | Etob_ae  (** Algorithm 5 + anti-entropy digest exchange *)
  | Recoverable of { ae : bool }
      (** Algorithm 5 under the crash-recovery wrapper, optionally with
          anti-entropy *)
  | Etob_commits  (** Algorithm 5 + Section 7 committed-prefix indications *)
  | Gossip  (** the leaderless negative baseline *)
  | Ec  (** bare Algorithm 4 with the self-driving proposer *)
  | Ec_lifted  (** multivalued EC through the binary lift *)
  | Ec_via_etob of Stacks.etob_impl  (** Algorithm 2 over an ETOB stack *)
  | Eic  (** Algorithm 6 over Algorithm 4 *)
  | Ec_via_eic  (** Algorithm 7 over (6 over 4) *)

(** The workload: what gets posted, by whom, when. *)
type workload =
  | No_posts
  | Posts of { count : int; from_time : time; every : int }
      (** round-robin {!Stacks.spread_posts} *)
  | Auto_posts of { count : int; stretch : bool }
      (** the explorer's posting policy: start at {!auto_post_from}, cadence
          {!auto_post_every} (stretched across the horizon for recovery
          targets so restarted processes post again) *)
  | Weighted of {
      count : int;
      from_time : time;
      every : int;
      jitter : int;  (** deterministic per-post arrival jitter in [0,jitter] *)
      mix : (string * int) list;  (** weighted tag mix, smooth round-robin *)
    }
  | Explicit of (time * proc_id * string) list  (** explicit [Post] tags *)
  | Raw of (time * proc_id * Io.input) list
      (** arbitrary engine inputs (escape hatch; not serializable) *)

(** Convergence-tau policy of the ETOB checker: a fixed bound, or the
    explorer's plan-aware bound ({!tau_bound}). *)
type tau_policy = Tau_auto | Tau_fixed of int

type watchdog_policy = Wd_auto | Wd_fixed of { settle : time; bound : int }

(** Checkers evaluated by {!run}, in order; their messages concatenate
    into the outcome's [violations]. *)
type checker = Etob_spec of tau_policy | Watchdog of watchdog_policy

(** Conditional adversity multipliers keyed on system state. *)
type boost =
  | Drop_boost_while_partitioned of { factor : int }
      (** While any partition window of the plan (buffering or lossy) is
          open, every [Drop] window's percentage is multiplied by [factor]
          (capped at 100): drop windows are split at partition boundaries
          and each segment gets its effective rate. *)

(** On-disk trace formats: jsonl ([Sink.jsonl], one JSON object per line)
    or the framed binary codec ([Sink.binary] over [Persist.Frame]). *)
type trace_format = Jsonl | Binary

val trace_format_name : trace_format -> string
(** "jsonl" / "bin" — the [--trace-format] vocabulary. *)

val trace_format_of_name : string -> trace_format option

type t = {
  base : base;
  stack : stack;
  workload : workload;
  plan : Adversity.t;
  boosts : boost list;
  omega : Stacks.omega_source option;
      (** [None] = the base's detector (oracle stable from 0 unless the
          plan flaps it) *)
  checkers : checker list;
  budget : int option;  (** exploration budget hint, carried by spec files *)
  mutation : Etob_omega.mutation option;
  rmutation : Recoverable.mutation option;
  ae_mutation : Anti_entropy.mutation option;
  (* Escape hatches: all [None] for declarative builders. *)
  rconfig : Recoverable.config option;
  ae_config : Anti_entropy.config option;
  commits : bool option;  (** Recoverable commit-prefix toggle *)
  stores : Persist.Store.t array option;
  sink : Sink.t option;
  trace_out : (string * trace_format) option;
      (** stream the run's events to a trace file (path, format); the
          outcome still carries the full trace (a capturing recorder is
          teed in), so checkers and digests are unaffected *)
  propose : (proc_id -> instance:int -> Value.t) option;
      (** EC-stack proposer; [None] = {!default_propose} *)
  max_instance : int;  (** EC-stack instance horizon (0 = drive nothing) *)
  service : Service_spec.t option;
      (** closed-loop client population riding this stack — carried and
          serialized here (one [service ...] spec line), interpreted by
          [lib/service]; {!run} itself ignores it *)
}

val create :
  ?seed:int ->
  ?timer_period:int ->
  ?delay:delay_model ->
  n:int -> deadline:time -> stack -> t
(** A declarative builder over {!Stacks.default}'s conventions: seed 42,
    timer period 2, constant unit delays, no workload, no plan, no
    checkers. *)

val of_setup : Stacks.setup -> stack -> t
(** Wrap a prebuilt setup ({!Opaque} base); used by the {!Scenario}
    presets.  Not serializable. *)

val default_propose : proc_id -> instance:int -> Value.t
(** [Num (1000*p + instance)]: the deterministic proposer EC stacks use
    when [propose] is [None]. *)

(** {2 Derived values and policies}

    The explorer's fairness and bound formulas, keyed on the builder.
    All of these require a {!Decl} base (they need the delay bounds as
    data) and raise [Invalid_argument] on an {!Opaque} one. *)

val n_of : t -> int
val seed_of : t -> int
val deadline_of : t -> time

val base_max_of : t -> int
(** The base delay model's largest delay. *)

val auto_post_from : int
(** First posting time of {!Auto_posts} workloads (8). *)

val post_count : t -> int
(** How many messages the workload posts. *)

val stack_name : stack -> string
(** The stack's stable spec-file name (["alg5"], ["recoverable+ae"], ...). *)

val auto_post_every : t -> int
(** {!Auto_posts} cadence: 3, stretched across the horizon when
    [stretch]. *)

val slack : t -> int
(** Recovery headroom granted on top of a plan's settle time. *)

val inputs : t -> (time * proc_id * Io.input) list
(** Materialize the workload (any workload, including [Raw]). *)

val last_post : t -> time
(** When the workload ends; convergence cannot precede it. *)

val drop_safe_until : t -> time
(** Start of the final full posting round of an {!Auto_posts} workload. *)

val ae_used : t -> bool
(** The stack includes the anti-entropy layer. *)

val ae_catchup : t -> int
(** Worst-case post-heal catch-up time of the digest exchange. *)

val lossy_safe_until : t -> time
(** Latest admissible heal time for message-losing partition windows. *)

val tau_bound : t -> time
(** The plan-aware convergence bound ({!Tau_auto}): [0] for Algorithm-5
    stacks under a never-flapping oracle and a recovery-free plan;
    otherwise settle + slack (+ retransmission backoff under recovery,
    + anti-entropy catch-up when partition loss meets the digest layer). *)

val watchdog_settle : t -> time
val watchdog_bound : t -> int

val target_stack :
  Stacks.etob_impl -> recovery:bool -> ae:bool -> t -> stack
(** The explorer's stack selection over a builder's mutations and plan:
    the anti-entropy and crash-recovery layers wrap Algorithm 5 only.
    [target_stack impl ~recovery ~ae t] is [Recoverable] when [impl] is
    Algorithm 5 and [recovery] is set, a recovery mutation is seeded or
    the plan carries recovery adversities; otherwise [Etob_ae] when [ae]
    is set or an anti-entropy mutation is seeded; otherwise [Etob impl].
    [Recoverable] carries the same anti-entropy choice.  Used by
    [Explore.Explorer.builder_of] and by {!of_lines} on legacy repro
    files. *)

val setup_of : t -> Stacks.setup
(** The engine setup this builder denotes: base, then the [omega]/[sink]
    clauses, then the plan ({!Adversity.apply}), then the boosts. *)

(** {2 Running} *)

type handles =
  | No_handles
  | Ae_handles of (Etob_omega.t * Anti_entropy.t) array
  | Recoverable_handles of Recoverable.t array * Persist.Store.t array

type outcome = {
  builder : t;
  trace : Trace.t option;  (** [None] iff the run raised under [~catch] *)
  report : Properties.etob_report option;
      (** computed iff the builder has checkers and the run completed *)
  violations : string list;  (** [[]] = clean *)
  digest : string;  (** trace digest (hex) iff [~digest]; [""] otherwise *)
  handles : handles;
}

val run : ?digest:bool -> ?catch:bool -> ?guard:(unit -> unit) -> t -> outcome
(** Interpret the builder: build the setup, materialize the workload, run
    the stack, evaluate the checkers in order.  Deterministic: equal
    builders give byte-identical runs.  [digest] (default false) records
    the trace digest; [catch] (default false) turns a raising run into an
    ["exception: ..."] violation instead of propagating.  [guard] is
    called once per engine-observable event ({!Sink.on_every}), before
    any recording — a soak watchdog raises from it to abort a wedged run
    (event budget, wall-clock deadline); the guard never changes what a
    completing run computes (trace, report, digest are unaffected).
    Under [catch] a raising guard is folded into an ["exception: ..."]
    violation like any other; run with [catch:false] to pattern-match
    the guard's own exception (the soak runner does, to tell a stuck
    run from a crashing one). *)

(** {2 Exploration and shrinking} *)

type exploration = { found : outcome option; plans_run : int; budget : int }

val explore :
  ?domains:int ->
  ?on_progress:(plans_run:int -> unit) ->
  gen:(int -> t) ->
  budget:int -> unit -> exploration
(** Run builders [gen 0 .. gen (budget-1)] until the first violation.
    [domains > 1] fans chunks of [4 * domains] over OCaml domains via
    {!Sweep.map_safe}; the reported finding is the lowest-index violation
    regardless of domain count.  Runs use [~digest:true ~catch:true]. *)

val shrink : rebuild:(Adversity.t -> t) -> outcome -> outcome
(** Greedy plan minimization: drop whole adversities, then substitute
    {!Adversity.weaken} variants, re-running [rebuild plan] at every step
    (so the caller decides how a smaller plan maps back to a builder —
    e.g. the explorer re-derives the stack, since dropping the last
    downtime window may demote a recoverable run to crash-stop). *)

(** {2 Stable text form} *)

val header : string
(** ["ecsim-spec v1"]. *)

val legacy_header : string
(** ["ecsim-explore-repro v1"]; {!of_lines} accepts this too, reading
    the repro's explorer-target fields as the v1 clauses
    [Explore.Explorer.builder_of] writes, so legacy files replay
    byte-identically. *)

val to_lines : ?digest:string -> ?violations:string list -> t -> string list
(** Serialize a declarative builder (raises [Invalid_argument] on
    {!Opaque} bases, [Raw] workloads or any escape hatch).  [digest] and
    [violations] are recorded for humans and {!recorded_digest};
    {!of_lines} ignores them otherwise. *)

val to_string : ?digest:string -> ?violations:string list -> t -> string

val of_lines : string list -> (t, string) result
(** Parse either text form; every error names the offending line.  Values
    the run would reject are parse errors too: [n < 2], a deadline or timer
    period below 1, delays below 1 or [max < min], negative workload
    fields (counts, start times, cadences, jitter) or plan counts, an
    explicit post at a negative time or to a process outside [[0, n)], an
    elected-Ω timeout below 1, and plan lines {!Adversity.of_line}
    rejects or naming a process outside [[0, n)].  New-format plans are
    normalized ({!Adversity.make}); legacy repro plans are kept
    verbatim. *)

val of_string : string -> (t, string) result

val recorded_digest : string -> string option
(** The [digest] header of a spec or repro string, if present. *)

val write : string -> ?digest:string -> ?violations:string list -> t -> unit
val read : string -> (t, string) result

val replay : string -> (outcome, string) result
(** Replay a recorded finding from its text alone (either header): parse,
    re-run with [~digest:true ~catch:true], and judge.  [Ok] iff the trace
    digest matches the recorded one (when a [digest] line is present) and
    the run violates exactly when the text records [violation] lines —
    byte-identical replay in both directions, not merely a similar
    outcome. *)

(** {2 Binary trace artifacts}

    A [.trace.bin] artifact written through [trace_out] plus
    {!append_binary_spec} is a self-contained replay unit: the framed
    event stream followed by a spec record carrying the run's spec text
    (digest and violations included). *)

val append_binary_spec :
  string -> ?digest:string -> ?violations:string list -> t -> unit
(** Append one spec record with {!to_string}'s text to an existing binary
    trace file.  Raises [Invalid_argument] like {!to_lines} if the
    builder is not serializable. *)

val binary_spec : string -> (string, string) result
(** Read a binary trace file and return its embedded spec text (the last
    spec record), ready for {!of_string} / {!recorded_digest}. *)
