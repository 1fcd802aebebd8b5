(** Bounded adversarial exploration: enumerate adversity plans against one
    protocol stack, flag runs violating the ETOB specification for their
    plan, and greedily shrink findings to a locally minimal plan.

    The violation predicate is plan-aware: safety violations always count,
    and the measured convergence taus are compared to a per-plan bound —
    [0] for Algorithm 5 under a never-flapping oracle (any revision is a
    bug, whatever else the plan does), and the plan's settle time plus
    slack otherwise.  Dually, plan {e generation} is clamped so a faithful
    protocol can always recover before the horizon (drop windows close
    before the final re-gossip round, spike tails fit the deadline, crash
    counts stay admitted by the target's environment): a flagged run is a
    real finding, not an artifact of an unfair plan. *)

open Simulator.Types
open Ec_core
open Harness

type target = {
  impl : Stacks.etob_impl;
  mutation : Etob_omega.mutation option;  (** seeded bug (Algorithm 5 only) *)
  n : int;
  deadline : time;
  posts : int;  (** workload size (round-robin spread posts) *)
  timer_period : int;
  base_min : int;  (** base delay-model bounds *)
  base_max : int;
  recovery : bool;
      (** run the crash-recovery stack ({!Ec_core.Recoverable} around
          Algorithm 5), generate recovery adversities (downtime windows,
          disk faults), and stretch the posting cadence across the horizon
          so restarted processes broadcast again *)
  rmutation : Recoverable.mutation option;
      (** seeded bug in the recovery path itself (implies the recovery
          stack for this run) *)
  ae : bool;
      (** stack the anti-entropy digest exchange
          ({!Ec_core.Anti_entropy}) beside Algorithm 5, and let generated
          message-losing partitions heal much later (anti-entropy, not the
          workload's re-gossip, repairs them) *)
  ae_mutation : Anti_entropy.mutation option;
      (** seeded bug in the anti-entropy layer (implies the layer for this
          run) — the skip-digest negative control the watchdog must flag *)
  watchdog : bool;
      (** check convergence-progress liveness ({!Harness.Watchdog}) on
          every run: a correct process that has not reached the union of
          final delivered sets by settle + bound is a violation *)
}

val default_target : target
(** Algorithm 5, unmutated: n=4, deadline=240, 12 posts, delays in [1,3],
    no recovery. *)

val builder_of : target -> seed:int -> Adversity.t -> Builder.t
(** The declarative builder a target denotes under one plan: the posting
    policy as an [Auto_posts] workload, the plan-aware ETOB checker, plus
    the watchdog when the target opts in, over the stack
    {!Harness.Builder.target_stack} selects.  Running, bounds, spec text
    and replay all go through this value — the explorer's single bridge
    to {!Harness.Builder}. *)

val target_of : Builder.t -> (target, string) result
(** Read the target fields back off a declarative builder (for
    [ecsim explore --spec]).  The builder's own plan is discarded —
    exploration generates its plans — and so is its budget hint; only
    ETOB-family stacks are accepted (the plan generator knows how to be
    fair to them).  [Ok t] exactly when [builder_of t ~seed:(seed_of b) []]
    serializes like [b] without its plan and budget, so [--spec] explores
    the run the file describes; otherwise [Error] names the first clause
    exploration cannot express. *)

type outcome = {
  plan : Adversity.t;
  seed : int;  (** the engine seed of this very run *)
  violations : string list;  (** [[]] = clean *)
  report : Properties.etob_report option;  (** [None] if the run raised *)
  digest : string;  (** trace digest (hex); [""] if the run raised *)
}

val run_plan : target -> seed:int -> Adversity.t -> outcome
(** Deterministic: same target, seed and plan always give the same
    outcome.  A raising run yields an ["exception: ..."] violation rather
    than propagating. *)

val max_crashes : target -> int
val random_plan : target -> rng:Simulator.Rng.t -> max_adversities:int -> Adversity.t
val sanitize : target -> Adversity.t -> Adversity.t

val plan_at : target -> seed:int -> max_adversities:int -> int -> Adversity.t
(** Plan [i] of an exploration; index 0 is always the empty plan, later
    plans are regenerable from their index alone. *)

type exploration = { found : outcome option; plans_run : int; budget : int }

val explore :
  ?domains:int ->
  ?on_progress:(plans_run:int -> unit) ->
  target ->
  seed:int -> budget:int -> max_adversities:int -> unit -> exploration
(** Run plans [0 .. budget-1] (each under engine seed [seed + i]) until the
    first violation.  [domains > 1] fans chunks over OCaml domains via
    {!Harness.Sweep.map_safe}; the reported finding is the lowest-index
    violation regardless of domain count. *)

val shrink : target -> outcome -> outcome
(** Greedy minimization to a local minimum: drop whole adversities, then
    substitute weaker variants ({!Adversity.weaken}), re-running the plan
    under the outcome's own seed at every step.  The result still
    violates. *)
