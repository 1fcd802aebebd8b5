(** Run-property checkers for every property of Section 3 and Appendix A,
    evaluated on finished run traces.

    "Eventually" clauses are interpreted against the run horizon (e.g.
    TOB-Validity becomes membership in the broadcaster's final delivered
    sequence), and the stabilization times tau are measured rather than
    asserted, so benches can compare them to the paper's bound
    tau_Omega + Delta_t + Delta_c. *)

open Simulator
open Simulator.Types

type verdict = { ok : bool; violations : string list }

val pass : verdict
val fail : string list -> verdict
val of_violations : string list -> verdict
val combine : verdict list -> verdict
val pp_verdict : Format.formatter -> verdict -> unit

(** {2 ETOB runs}

    Complexity notes use: n processes, R revisions of d_i over all
    processes, T distinct revision times (T <= R), L the longest delivered
    sequence, B broadcasts.  Position tables are hash tables keyed by
    message id, so their lookups count as O(1).  The list-based
    definitions these checkers replaced are kept in the test suite as a
    reference oracle (DESIGN.md, "ETOB checkers: complexity and reference
    oracle"). *)

type etob_run

val etob_run_of_trace : Failures.pattern -> Trace.t -> etob_run
(** O(trace events + B log B). *)

val final_d : etob_run -> proc_id -> App_msg.t list
(** The last revision of d_p; O(1). *)

val d_at : etob_run -> proc_id -> time -> App_msg.t list
(** d_p(t): the last revision of the longest run of p's revisions (in
    trace order) all at or before [t]; O(revisions of p). *)

val broadcast_time : etob_run -> App_msg.t -> time option
(** The time of the first broadcast of [m]'s id; O(log B). *)

val revisions : etob_run -> proc_id -> (time * App_msg.t list) list
(** The chronological revisions of [d_p] — what the liveness watchdog
    ({!Harness.Watchdog}) scans for convergence progress. *)

val broadcasts : etob_run -> (time * proc_id * App_msg.t) list
(** Every broadcastETOB event of the run, chronological. *)

val horizon : etob_run -> time
(** The run horizon (time of the last trace event). *)

val correct_procs : etob_run -> proc_id list

val check_validity : etob_run -> verdict
(** TOB-Validity; O(B * L). *)

val check_no_creation : etob_run -> verdict
(** TOB-No-creation; O(R * L * log B). *)

val check_no_duplication : etob_run -> verdict
(** TOB-No-duplication; O(R * L * log L). *)

val check_agreement : etob_run -> verdict
(** TOB-Agreement on the final sequences, one id set per correct process;
    O(n^2 * L * log L). *)

val stability_time : etob_run -> time
(** Measured ETOB-Stability tau; [0] means strong TOB-Stability.
    O(R * L). *)

val total_order_time : etob_run -> time
(** Measured ETOB-Total-order tau; [0] means strong TOB-Total-order.  The
    evaluation times are every process's revision times, faulty ones
    included; each pair of correct processes is compared one way, earlier
    in [Failures.correct] order first ({!orders_agree} is asymmetric).
    One sweep over the sorted times that rebuilds a process's position
    table only when it is revised and re-compares only the pairs touching
    it: O(R log R + T * n + R * n * L). *)

val check_causal_order : etob_run -> verdict
(** TOB-Causal-Order, required at {e all} times.  One position table per
    revision: O(R * (L + deps)). *)

val check_deps_present : etob_run -> verdict
(** Stronger, Algorithm-5-specific property: a delivered message's causal
    dependencies are themselves delivered.  O(R * (L + deps) * log L). *)

val check_distinct_broadcasts : etob_run -> verdict
(** The paper's standing assumption that broadcast messages are distinct,
    made checkable: no (origin, sn) id is broadcast twice.  A process that
    recovers from a crash with amnesia (lost allocation state) is exactly
    what breaks it.  O(B log B). *)

val orders_agree : App_msg.t list -> App_msg.t list -> bool
(** Common messages of the two sequences appear in the same relative
    order: walking [seq_a], the positions of the first occurrences of its
    messages in [seq_b] strictly increase.  Asymmetric when [seq_a] holds
    a duplicate id: [[x;y]] agrees with [[x;y;x]], but [[x;y;x]] does not
    agree with [[x;y]].  O(|seq_a| + |seq_b|). *)

type etob_report = {
  validity : verdict;
  no_creation : verdict;
  no_duplication : verdict;
  agreement : verdict;
  causal_order : verdict;
  distinct_broadcasts : verdict;
  tau_stability : time;
  tau_total_order : time;
}

val etob_report : etob_run -> etob_report
(** Every checker above; O(R log R + T * n + R * n * L) overall, the
    total-order sweep dominating. *)

val etob_base_ok : etob_report -> bool
(** The paper's four base TOB properties (validity, no-creation,
    no-duplication, agreement) hold.  [distinct_broadcasts] is a check on
    the model's {e assumption} rather than on the protocol, so it is
    reported separately (and folded into {!etob_violations}). *)

val is_strong_tob : etob_report -> bool
(** All six strong TOB properties hold (tau = 0). *)

val etob_violations : ?tau_bound:time -> etob_report -> string list
(** Flatten a report into the violated-property messages the explorer
    consumes: all safety violations, plus — when [tau_bound] is given — the
    measured taus exceeding it.  Use [tau_bound:0] for runs whose detector
    never flaps (strong TOB is then mandatory) and the plan's settle time
    plus slack otherwise; omit it to check eventual properties only.
    Empty list = clean run. *)

val etob_convergence_time : etob_report -> time
val pp_etob_report : Format.formatter -> etob_report -> unit

val stable_delivery_time : etob_run -> App_msg.t -> time option
(** The time by which every correct process has stably delivered [m]. *)

(** {2 Committed-prefix runs (Section 7 extension)} *)

type commit_run

val commit_run_of_trace : Failures.pattern -> Trace.t -> commit_run

val check_commit_stability : commit_run -> verdict
(** A committed prefix is never rolled back: every announcement extends the
    previous one at the same process. *)

val final_committed : commit_run -> proc_id -> App_msg.t list

val check_commit_consistent : commit_run -> etob_run -> verdict
(** Every committed prefix is a prefix of what every correct process
    eventually delivers. *)

val commit_time : commit_run -> App_msg.t -> time option
(** The time by which every correct process knows [m] committed. *)

val committed_count : commit_run -> proc_id -> int

(** {2 EC runs} *)

type ec_run

val ec_run_of_trace : ?layer:string -> Failures.pattern -> Trace.t -> ec_run
(** Extract the EC history of one layer (default {!Ec_intf.default_layer}). *)

val check_ec_integrity : ec_run -> verdict
val check_ec_validity : ec_run -> verdict
val check_ec_termination : ec_run -> instances:int -> verdict

val ec_agreement_index : ec_run -> int
(** Measured EC-Agreement index k: all decisions agree from instance k on;
    [1] means agreement throughout. *)

val decided_instances : ec_run -> int list

type ec_report = {
  integrity : verdict;
  ec_validity : verdict;
  termination : verdict;
  agreement_index : int;
}

val ec_report : ec_run -> instances:int -> ec_report
val ec_ok : ?agreement_by:int -> ec_report -> bool
val pp_ec_report : Format.formatter -> ec_report -> unit

(** {2 EIC runs (Appendix A)} *)

type eic_run

val eic_run_of_trace : Failures.pattern -> Trace.t -> eic_run

val eic_final_response : eic_run -> proc_id -> int -> Value.t option

val eic_integrity_index : eic_run -> int
(** Measured EIC-Integrity index k: no double response for instances >= k. *)

val eic_revocation_count : eic_run -> int
(** Total number of revocations (extra responses) in the run — EIC allows
    finitely many. *)

val check_eic_agreement : eic_run -> verdict
val check_eic_validity : eic_run -> verdict
val check_eic_termination : eic_run -> instances:int -> verdict
