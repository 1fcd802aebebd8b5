(* Bounded adversarial exploration.

   The explorer enumerates adversity plans against one target protocol
   stack, runs each through the deterministic engine, and flags runs whose
   property report violates the ETOB specification *for that plan*.  Since
   the [Harness.Builder] refactor it owns only the target description and
   plan generation: a target plus a plan maps to a declarative builder
   ([builder_of]), and running, bound computation, exploration and
   shrinking all delegate to the builder — the same code path that serves
   spec files and the scenario presets, so a found plan replays
   byte-identically everywhere.

   The per-plan tau bound is where the correctness argument lives.  With an
   oracle that never flaps, every adoption in Algorithm 5 is a same-lineage
   promote from the one stable leader, so strong stability and total order
   (tau = 0) are mandatory no matter which crashes, partitions, spikes,
   drops or duplicates the plan contains — any revision is a bug.  With
   flapping, tau may legitimately reach the plan's settle time, so the
   bound is settle + slack ([Builder.tau_bound]).

   The other half of the argument is generation-side fairness: every
   generated plan must be recoverable before the horizon, or a faithful
   protocol would be flagged.  All such clamps (drop windows closing before
   the final re-gossip round, spike tails fitting in the horizon, crash
   counts admitted by the target's environment) live in [random_spec] /
   [sanitize], so exploration can trust any plan it draws. *)

open Simulator
open Simulator.Types
open Ec_core
open Harness

type target = {
  impl : Stacks.etob_impl;
  mutation : Etob_omega.mutation option;
  n : int;
  deadline : time;
  posts : int;
  timer_period : int;
  base_min : int;
  base_max : int;
  recovery : bool;
  rmutation : Recoverable.mutation option;
  ae : bool;
  ae_mutation : Anti_entropy.mutation option;
  watchdog : bool;
}

let default_target =
  { impl = Stacks.Algorithm_5;
    mutation = None;
    n = 4;
    deadline = 240;
    posts = 12;
    timer_period = 2;
    base_min = 1;
    base_max = 3;
    recovery = false;
    rmutation = None;
    ae = false;
    ae_mutation = None;
    watchdog = false }

(* ------------------------------------------------------------------ *)
(* Targets as builders                                                 *)
(* ------------------------------------------------------------------ *)

(* The builder a target denotes under one plan: the explorer's posting
   policy as an [Auto_posts] workload, the ETOB checker with the
   plan-aware tau bound, the liveness watchdog when the target opts in,
   and the stack [Builder.target_stack] selects for the mutations and
   plan.  Everything downstream — running, bounds, spec text, replay — is
   the builder's. *)
let builder_of target ~seed plan =
  let b =
    { (Builder.create ~seed ~timer_period:target.timer_period
         ~delay:
           (Builder.Uniform { min_d = target.base_min; max_d = target.base_max })
         ~n:target.n ~deadline:target.deadline (Builder.Etob target.impl))
      with
      Builder.workload =
        Builder.Auto_posts { count = target.posts; stretch = target.recovery };
      plan;
      mutation = target.mutation;
      rmutation = target.rmutation;
      ae_mutation = target.ae_mutation;
      checkers =
        Builder.Etob_spec Builder.Tau_auto
        :: (if target.watchdog then [ Builder.Watchdog Builder.Wd_auto ] else [])
    }
  in
  { b with
    Builder.stack =
      Builder.target_stack target.impl ~recovery:target.recovery ~ae:target.ae b
  }

(* The inverse direction, for [ecsim explore --spec]: read the target
   fields back off a declarative builder.  The spec's plan is a starting
   point the search discards (exploration generates its own) and its
   budget is a hint the caller reads; every other clause must be one
   [builder_of] writes back — otherwise the search would silently explore
   a different run (an omega clause, a boost, a fixed tau, a hand-set
   workload), so the first clause it cannot express is an error. *)
let target_of (b : Builder.t) =
  let ( let* ) = Result.bind in
  let* d =
    match b.Builder.base with
    | Builder.Opaque _ ->
      Error "exploration needs a declarative (spec-file) base"
    | Builder.Decl d -> Ok d
  in
  let* impl, ae =
    match b.Builder.stack with
    | Builder.Etob impl -> Ok (impl, false)
    | Builder.Etob_ae -> Ok (Stacks.Algorithm_5, true)
    | Builder.Recoverable { ae } -> Ok (Stacks.Algorithm_5, ae)
    | s ->
      Error
        (Printf.sprintf "exploration does not cover the %s stack"
           (Builder.stack_name s))
  in
  let base_min, base_max =
    match d.Builder.delay with
    | Builder.Constant dl -> (dl, dl)
    | Builder.Uniform { min_d; max_d } -> (min_d, max_d)
  in
  let t =
    { impl;
      mutation = b.Builder.mutation;
      n = d.Builder.n;
      deadline = d.Builder.deadline;
      posts = Builder.post_count b;
      timer_period = d.Builder.timer_period;
      base_min;
      base_max;
      recovery =
        (match b.Builder.workload with
         | Builder.Auto_posts { stretch; _ } -> stretch
         | _ -> false);
      rmutation = b.Builder.rmutation;
      ae;
      ae_mutation = b.Builder.ae_mutation;
      watchdog =
        List.exists
          (function Builder.Watchdog _ -> true | _ -> false)
          b.Builder.checkers }
  in
  let lines b =
    match Builder.to_lines b with
    | lines -> Ok lines
    | exception Invalid_argument msg -> Error msg
  in
  let* want = lines { b with Builder.plan = []; budget = None } in
  let* got = lines (builder_of t ~seed:d.Builder.seed []) in
  if got = want then Ok t
  else
    match List.find_opt (fun l -> not (List.mem l got)) want with
    | Some l -> Error (Printf.sprintf "exploration cannot express %S" l)
    | None ->
      (match List.find_opt (fun l -> not (List.mem l want)) got with
       | Some l ->
         Error (Printf.sprintf "exploration needs the clause %S" l)
       | None -> Error "exploration needs the clauses in canonical order")

(* ------------------------------------------------------------------ *)
(* Running one plan                                                    *)
(* ------------------------------------------------------------------ *)

type outcome = {
  plan : Adversity.t;
  seed : int;  (* the engine seed of this very run *)
  violations : string list;  (* [] = clean *)
  report : Properties.etob_report option;  (* None if the run raised *)
  digest : string;  (* trace digest (hex); "" if the run raised *)
}

let outcome_of (o : Builder.outcome) =
  { plan = o.Builder.builder.Builder.plan;
    seed = Builder.seed_of o.Builder.builder;
    violations = o.Builder.violations;
    report = o.Builder.report;
    digest = o.Builder.digest }

let run_plan target ~seed plan =
  outcome_of (Builder.run ~digest:true ~catch:true (builder_of target ~seed plan))

(* ------------------------------------------------------------------ *)
(* Plan generation                                                     *)
(* ------------------------------------------------------------------ *)

let max_crashes target =
  match target.impl with
  | Stacks.Algorithm_5 -> target.n - 1  (* any environment *)
  | _ -> (target.n - 1) / 2  (* quorum stacks need a correct majority *)

let random_spec target ~rng =
  let open Adversity in
  let b = builder_of target ~seed:0 [] in
  let slack = Builder.slack b in
  let drop_safe_until = Builder.drop_safe_until b in
  let lossy_safe_until = Builder.lossy_safe_until b in
  let d = target.deadline in
  let window ~latest_until =
    let latest_until = max 2 latest_until in
    let from_time = Rng.int rng (latest_until - 1) in
    let len = 1 + Rng.int rng (max 1 (d / 4)) in
    (from_time, min latest_until (from_time + len))
  in
  let healed_latest = d - slack - target.base_max in
  (* Drops exist only for Algorithm 5, whose full-graph re-gossip makes a
     closed drop window recoverable; the quorum baselines have no such
     blanket retransmission, so dropping their messages could flag a
     faithful run.  Recovery adversities exist only for recovery targets
     (the recoverable stack wraps Algorithm 5). *)
  (* A nonempty proper subset of the processes, drawn uniformly-ish. *)
  let random_side () =
    match List.filter (fun _ -> Rng.int rng 2 = 0) (all_procs target.n) with
    | [] -> [ 0 ]
    | l when List.length l = target.n -> [ 0 ]
    | l -> l
  in
  let kind_pool =
    [ 0; 1; 2; 3; 4 ]
    @ (if target.impl = Stacks.Algorithm_5 && drop_safe_until > 2
       then [ 5 ]
       else [])
    @ (if target.recovery && target.impl = Stacks.Algorithm_5
       then [ 6; 7 ]
       else [])
      (* Message-LOSING partitions are only fair against Algorithm 5, whose
         full-graph re-gossip (or anti-entropy layer) can recover the loss;
         see [Builder.lossy_safe_until] for the window clamp.  They join the
         pool only for partition-aware targets (anti-entropy or watchdog on):
         that is where they have teeth — and legacy targets keep drawing
         exactly the plans they always did, so recorded repros and tuned
         search budgets stay valid. *)
    @ (if target.impl = Stacks.Algorithm_5
          && (Builder.ae_used b || target.watchdog)
          && lossy_safe_until > 2
       then [ 8; 9; 10; 11 ]
       else [])
  in
  match List.nth kind_pool (Rng.int rng (List.length kind_pool)) with
  | 0 when max_crashes target >= 1 ->
    Crash { proc = Rng.int rng target.n; at = Rng.int rng d }
  | 1 ->
    let left = random_side () in
    let from_time, until_time = window ~latest_until:healed_latest in
    Partition { left; from_time; until_time }
  | 2 ->
    let factor = 2 + Rng.int rng 7 in
    let latest = d - slack - (target.base_max * factor) in
    let from_time, until_time = window ~latest_until:latest in
    let link =
      if Rng.int rng 2 = 0 then None
      else Some (Rng.int rng target.n, Rng.int rng target.n)
    in
    Delay_spike { link; from_time; until_time; factor }
  | 3 ->
    let from_time, until_time = window ~latest_until:healed_latest in
    Duplicate { from_time; until_time; copies = 1 + Rng.int rng 3 }
  | 4 ->
    Omega_flap
      { until_time = 4 + Rng.int rng (d / 2);
        period = 1 + Rng.int rng (3 * target.timer_period) }
  | 5 ->
    let from_time, until_time = window ~latest_until:drop_safe_until in
    Drop { from_time; until_time; pct = 25 * (1 + Rng.int rng 4) }
  | 6 ->
    (* The window must close early enough for retransmission to catch the
       restarted process up before the horizon. *)
    let at, recover_at = window ~latest_until:healed_latest in
    Crash_recover { proc = Rng.int rng target.n; at; recover_at }
  | 7 ->
    let kind =
      match Rng.int rng 3 with
      | 0 -> Persist.Store.Torn_tail
      | 1 -> Persist.Store.Lost_suffix (1 + Rng.int rng 4)
      | _ -> Persist.Store.Corrupt_record
    in
    Disk_fault { proc = Rng.int rng target.n; kind }
  | 8 ->
    (* Split-brain: a contiguous run of n/2 processes against the rest. *)
    let off = Rng.int rng target.n in
    let left =
      List.init (max 1 (target.n / 2)) (fun i -> (off + i) mod target.n)
    in
    let from_time, until_time = window ~latest_until:lossy_safe_until in
    Lossy_partition { left; from_time; until_time }
  | 9 ->
    (* Minority isolation: one process alone behind the loss. *)
    let from_time, until_time = window ~latest_until:lossy_safe_until in
    Lossy_partition { left = [ Rng.int rng target.n ]; from_time; until_time }
  | 10 ->
    let from_time, until_time = window ~latest_until:lossy_safe_until in
    Oneway_partition { left = random_side (); from_time; until_time }
  | 11 ->
    let from_time, until_time = window ~latest_until:lossy_safe_until in
    Flapping_partition
      { left = random_side ();
        from_time;
        until_time;
        period = 1 + Rng.int rng (2 * target.timer_period) }
  | _ ->
    (* crash drawn but the environment admits none *)
    Duplicate { from_time = 0; until_time = target.base_max; copies = 1 }

(* Enforce plan-level invariants the independent draws cannot see: the
   crash count stays admitted by the target's environment (one crash per
   process), at most one flap survives, permanent crashes and downtime
   windows never hit the same process, recovery adversities only target
   the recoverable stack, and a disk fault without a crash to apply it at
   is dead weight. *)
let sanitize target plan =
  let crashes = ref 0 and flapped = ref false in
  let crashed = Hashtbl.create 4 in
  let windowed = Hashtbl.create 4 in
  let recovery_ok = target.impl = Stacks.Algorithm_5 in
  let plan =
    List.filter
      (fun spec ->
         match spec with
         | Adversity.Crash { proc; _ } ->
           if Hashtbl.mem crashed proc || Hashtbl.mem windowed proc
              || !crashes >= max_crashes target
           then false
           else begin
             Hashtbl.add crashed proc ();
             incr crashes;
             true
           end
         | Adversity.Omega_flap _ ->
           if !flapped then false
           else begin
             flapped := true;
             true
           end
         | Adversity.Crash_recover { proc; _ } ->
           if (not recovery_ok) || Hashtbl.mem crashed proc
              || Hashtbl.mem windowed proc
           then false
           else begin
             Hashtbl.add windowed proc ();
             true
           end
         | Adversity.Disk_fault _ -> recovery_ok
         | _ -> true)
      plan
  in
  let windows = Adversity.recover_procs plan in
  List.filter
    (function
      | Adversity.Disk_fault { proc; _ } -> List.mem proc windows
      | _ -> true)
    plan

let random_plan target ~rng ~max_adversities =
  let k = Rng.int rng (max_adversities + 1) in
  let rec build i acc =
    if i = 0 then List.rev acc
    else build (i - 1) (random_spec target ~rng :: acc)
  in
  Adversity.make (sanitize target (build k []))

(* Plan [i] of an exploration: index 0 is always the empty plan (bugs that
   need no adversity at all should be found — and shrunk — immediately);
   later indices draw from an index-derived rng, so any plan can be
   regenerated without replaying the whole search. *)
let plan_at target ~seed ~max_adversities i =
  if i = 0 then []
  else
    let rng = Rng.create ((seed * 0x1000003) lxor (i * 0x9e3779b9)) in
    random_plan target ~rng ~max_adversities

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)
(* ------------------------------------------------------------------ *)

type exploration = { found : outcome option; plans_run : int; budget : int }

(* Each plan runs under its own engine seed [seed + i] so the search also
   sweeps network randomness; the loop itself (sequential early exit, or
   chunks fanned over domains with lowest-index reporting) is
   [Builder.explore]'s. *)
let explore ?domains ?on_progress target ~seed ~budget ~max_adversities () =
  let plan_at = plan_at target ~seed ~max_adversities in
  let r =
    Builder.explore ?domains ?on_progress
      ~gen:(fun i -> builder_of target ~seed:(seed + i) (plan_at i))
      ~budget ()
  in
  { found = Option.map outcome_of r.Builder.found;
    plans_run = r.Builder.plans_run;
    budget = r.Builder.budget }

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* [Builder.shrink] with candidates rebuilt under the outcome's own engine
   seed, so the shrunk plan is a deterministic repro of the same run
   family.  [builder_of] re-derives the stack per candidate plan — that is
   the point of the [rebuild] hook: dropping the last downtime window may
   demote a recoverable run back to crash-stop. *)
let shrink target (o : outcome) =
  let seed = o.seed in
  let bo =
    { Builder.builder = builder_of target ~seed o.plan;
      trace = None;
      report = o.report;
      violations = o.violations;
      digest = o.digest;
      handles = Builder.No_handles }
  in
  outcome_of (Builder.shrink ~rebuild:(fun plan -> builder_of target ~seed plan) bo)
