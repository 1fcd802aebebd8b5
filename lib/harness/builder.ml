(* Declarative test builder: one immutable value composing stack, workload,
   adversity plan (plus conditional boosts), detector source, checkers and
   budget — and one interpreter, [run], behind every way this repository
   builds a run.  [Scenario]'s run_* entrypoints are presets over builders,
   the explorer generates and shrinks builder values, and ecsim decodes its
   flags (or a --spec file) into one.

   Determinism is the design constraint throughout: a builder made of plain
   data serializes to a stable text form and replays byte-identically, and
   the policy formulas (posting cadence, tau and watchdog bounds,
   generation clamps) live here so the explorer, the CLI and spec-file
   replays compute exactly the same numbers. *)

open Simulator
open Simulator.Types
open Ec_core

type delay_model = Constant of int | Uniform of { min_d : int; max_d : int }

type decl_base = {
  n : int;
  seed : int;
  deadline : time;
  timer_period : int;
  delay : delay_model;
}

type base = Decl of decl_base | Opaque of Stacks.setup

type stack =
  | Etob of Stacks.etob_impl
  | Etob_ae
  | Recoverable of { ae : bool }
  | Etob_commits
  | Gossip
  | Ec
  | Ec_lifted
  | Ec_via_etob of Stacks.etob_impl
  | Eic
  | Ec_via_eic

type workload =
  | No_posts
  | Posts of { count : int; from_time : time; every : int }
  | Auto_posts of { count : int; stretch : bool }
  | Weighted of {
      count : int;
      from_time : time;
      every : int;
      jitter : int;
      mix : (string * int) list;
    }
  | Explicit of (time * proc_id * string) list
  | Raw of (time * proc_id * Io.input) list

type tau_policy = Tau_auto | Tau_fixed of int
type watchdog_policy = Wd_auto | Wd_fixed of { settle : time; bound : int }
type checker = Etob_spec of tau_policy | Watchdog of watchdog_policy
type boost = Drop_boost_while_partitioned of { factor : int }
type trace_format = Jsonl | Binary

let trace_format_name = function Jsonl -> "jsonl" | Binary -> "bin"

let trace_format_of_name = function
  | "jsonl" -> Some Jsonl
  | "bin" -> Some Binary
  | _ -> None

type t = {
  base : base;
  stack : stack;
  workload : workload;
  plan : Adversity.t;
  boosts : boost list;
  omega : Stacks.omega_source option;
  checkers : checker list;
  budget : int option;
  mutation : Etob_omega.mutation option;
  rmutation : Recoverable.mutation option;
  ae_mutation : Anti_entropy.mutation option;
  rconfig : Recoverable.config option;
  ae_config : Anti_entropy.config option;
  commits : bool option;
  stores : Persist.Store.t array option;
  sink : Sink.t option;
  trace_out : (string * trace_format) option;
  propose : (proc_id -> instance:int -> Value.t) option;
  max_instance : int;
  service : Service_spec.t option;
}

let create ?(seed = 42) ?(timer_period = 2) ?(delay = Constant 1) ~n ~deadline
    stack =
  { base = Decl { n; seed; deadline; timer_period; delay };
    stack;
    workload = No_posts;
    plan = [];
    boosts = [];
    omega = None;
    checkers = [];
    budget = None;
    mutation = None;
    rmutation = None;
    ae_mutation = None;
    rconfig = None;
    ae_config = None;
    commits = None;
    stores = None;
    sink = None;
    trace_out = None;
    propose = None;
    max_instance = 0;
    service = None }

let of_setup setup stack =
  { (create ~n:setup.Stacks.n ~deadline:setup.Stacks.deadline stack) with
    base = Opaque setup }

let default_propose p ~instance = Value.Num ((1000 * p) + instance)

(* ------------------------------------------------------------------ *)
(* Derived values and policies (the explorer's formulas, verbatim)     *)
(* ------------------------------------------------------------------ *)

let n_of t = match t.base with Decl d -> d.n | Opaque s -> s.Stacks.n
let seed_of t = match t.base with Decl d -> d.seed | Opaque s -> s.Stacks.seed

let deadline_of t =
  match t.base with Decl d -> d.deadline | Opaque s -> s.Stacks.deadline

let timer_period_of t =
  match t.base with
  | Decl d -> d.timer_period
  | Opaque s -> s.Stacks.timer_period

let decl_of t =
  match t.base with
  | Decl d -> d
  | Opaque _ ->
    invalid_arg "Builder: this policy needs a declarative (Decl) base"

let base_max_of t =
  match (decl_of t).delay with
  | Constant d -> d
  | Uniform { max_d; _ } -> max_d

let auto_post_from = 8
let auto_post_every_base = 3

(* Recovery headroom granted on top of a plan's settle time: a few promote
   rounds plus message flushes.  Deliberately generous — the bound only
   needs to separate "converged late" from "never converged". *)
let slack t = (8 * timer_period_of t) + (6 * base_max_of t) + 10

(* The workload's post count, for the policy formulas below. *)
let post_count t =
  match t.workload with
  | Auto_posts { count; _ } | Posts { count; _ } | Weighted { count; _ } ->
    count
  | No_posts -> 0
  | Explicit posts -> List.length posts
  | Raw inputs -> List.length inputs

(* Stretched cadence for recovery targets: a process restarted by a mid-run
   downtime window still posts afterwards — the amnesia mutant only reuses
   a sequence number if its victim broadcasts again after the restart. *)
let auto_post_every t =
  let stretch =
    match t.workload with Auto_posts { stretch; _ } -> stretch | _ -> false
  in
  if stretch then
    max auto_post_every_base
      ((deadline_of t - auto_post_from - slack t) / max 1 (post_count t))
  else auto_post_every_base

(* Start of the final full posting round: from here on every correct
   process posts (and re-gossips its whole causality graph) at least
   once. *)
let drop_safe_until t =
  auto_post_from + (max 0 (post_count t - n_of t) * auto_post_every t)

let last_post t =
  match t.workload with
  | No_posts -> 0
  | Auto_posts { count; _ } ->
    auto_post_from + (max 0 (count - 1) * auto_post_every t)
  | Posts { count; from_time; every } ->
    from_time + (max 0 (count - 1) * every)
  | Weighted { count; from_time; every; jitter; _ } ->
    from_time + (max 0 (count - 1) * every) + jitter
  | Explicit posts ->
    List.fold_left (fun acc (tm, _, _) -> max acc tm) 0 posts
  | Raw inputs -> List.fold_left (fun acc (tm, _, _) -> max acc tm) 0 inputs

let ae_used t =
  match t.stack with
  | Etob_ae | Recoverable { ae = true } -> true
  | _ -> false

(* Worst-case post-heal catch-up time of the digest exchange: the laggard's
   next digest broadcast, one full resend backoff, and delta delivery. *)
let ae_catchup t =
  let ae = Option.value t.ae_config ~default:Anti_entropy.default_config in
  ((ae.Anti_entropy.every + ae.Anti_entropy.max_backoff + 2)
   * timer_period_of t)
  + (2 * base_max_of t)

let lossy_safe_until t =
  if ae_used t then deadline_of t - slack t - ae_catchup t
  else drop_safe_until t

let alg5_based t =
  match t.stack with
  | Etob Stacks.Algorithm_5 | Etob_ae | Recoverable _ -> true
  | _ -> false

(* The plan-aware convergence bound.  With a never-flapping oracle and no
   restarts, every adoption in Algorithm 5 is a same-lineage promote from
   the one stable leader, so tau = 0 is mandatory no matter what else the
   plan contains; otherwise the plan's settle time plus slack, plus the
   retransmission backoff a restarted process may wait out, plus the
   digest-exchange catch-up a partition-isolated process may need. *)
let tau_bound t =
  let recovery = Adversity.has_recovery t.plan in
  if alg5_based t && (not (Adversity.has_flap t.plan)) && not recovery then 0
  else
    Adversity.settle_time ~base_max:(base_max_of t) t.plan
    + slack t
    + (if recovery then Recoverable.default_config.Recoverable.max_backoff
       else 0)
    + (if ae_used t && Adversity.has_partition_loss t.plan then ae_catchup t
       else 0)

let watchdog_settle t =
  max (Adversity.settle_time ~base_max:(base_max_of t) t.plan) (last_post t)

let watchdog_bound t =
  slack t
  + (if ae_used t then ae_catchup t else 0)
  + (match t.stack with
     | Recoverable _ -> Recoverable.default_config.Recoverable.max_backoff
     | _ -> 0)

(* The explorer's stack selection, shared with the legacy repro reader:
   the anti-entropy and crash-recovery layers wrap Algorithm 5 only.
   Anti-entropy runs when opted in or an anti-entropy mutation is seeded;
   the recoverable stack runs when opted in, a recovery mutation is
   seeded, or the plan carries recovery adversities (downtime windows are
   only fair against a stack that can replay its stable store). *)
let target_stack impl ~recovery ~ae t =
  let alg5 = impl = Stacks.Algorithm_5 in
  let ae = alg5 && (ae || t.ae_mutation <> None) in
  if alg5 && (recovery || t.rmutation <> None || Adversity.has_recovery t.plan)
  then Recoverable { ae }
  else if ae then Etob_ae
  else Etob impl

(* ------------------------------------------------------------------ *)
(* Workload materialization                                            *)
(* ------------------------------------------------------------------ *)

(* Smooth weighted round-robin over the mix: deterministic, no randomness,
   the classic "add weights, take the max, subtract the total" scheduler.
   Arrival jitter draws from a seed-derived stream so reruns are stable. *)
let weighted_posts ~n ~seed ~count ~from_time ~every ~jitter ~mix =
  let mix = match mix with [] -> [ ("m", 1) ] | mix -> mix in
  let weights = Array.of_list (List.map snd mix) in
  let names = Array.of_list (List.map fst mix) in
  let total = Array.fold_left ( + ) 0 weights in
  let current = Array.make (Array.length weights) 0 in
  let rng = Rng.create (seed lxor 0x5eed) in
  let posts =
    List.init count (fun i ->
        Array.iteri (fun j w -> current.(j) <- current.(j) + w) weights;
        let best = ref 0 in
        Array.iteri
          (fun j c -> if c > current.(!best) then best := j)
          current;
        current.(!best) <- current.(!best) - total;
        let tm =
          from_time + (i * every)
          + (if jitter > 0 then Rng.int rng (jitter + 1) else 0)
        in
        (tm, i mod n, Stacks.Post (Printf.sprintf "%s%d" names.(!best) i)))
  in
  List.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b) posts

let inputs t =
  let n = n_of t in
  match t.workload with
  | No_posts -> []
  | Posts { count; from_time; every } ->
    Stacks.spread_posts ~n ~count ~from_time ~every
  | Auto_posts { count; _ } ->
    Stacks.spread_posts ~n ~count ~from_time:auto_post_from
      ~every:(auto_post_every t)
  | Weighted { count; from_time; every; jitter; mix } ->
    weighted_posts ~n ~seed:(seed_of t) ~count ~from_time ~every ~jitter ~mix
  | Explicit posts ->
    List.map (fun (tm, p, tag) -> (tm, p, Stacks.Post tag)) posts
  | Raw raw -> raw

(* ------------------------------------------------------------------ *)
(* Setup construction (base, clauses, plan, boosts)                    *)
(* ------------------------------------------------------------------ *)

let partition_windows plan =
  List.filter_map
    (function
      | Adversity.Partition { from_time; until_time; _ }
      | Adversity.Lossy_partition { from_time; until_time; _ }
      | Adversity.Oneway_partition { from_time; until_time; _ }
      | Adversity.Flapping_partition { from_time; until_time; _ } ->
        Some (from_time, until_time)
      | _ -> None)
    plan

let boost_factor t =
  List.fold_left
    (fun acc (Drop_boost_while_partitioned { factor }) -> acc * max 1 factor)
    1 t.boosts

(* With boosts, the plan's drop windows are split at the partition-window
   boundaries and every segment that starts inside an open partition gets
   the boosted rate.  Without boosts this is exactly [Adversity.apply], so
   legacy plans stay byte-identical. *)
let apply_plan t s =
  if t.boosts = [] then Adversity.apply t.plan s
  else begin
    let factor = boost_factor t in
    let windows = partition_windows t.plan in
    let without_drops =
      List.filter (function Adversity.Drop _ -> false | _ -> true) t.plan
    in
    let s = Adversity.apply without_drops s in
    let in_partition tm = List.exists (fun (f, u) -> f <= tm && tm < u) windows in
    List.fold_left
      (fun s spec ->
         match spec with
         | Adversity.Drop { from_time; until_time; pct } ->
           let cuts =
             List.sort_uniq Int.compare
               (from_time :: until_time
                :: List.concat_map
                  (fun (a, b) ->
                     List.filter
                       (fun c -> from_time < c && c < until_time)
                       [ a; b ])
                  windows)
           in
           let rec segments = function
             | a :: (b :: _ as rest) -> (a, b) :: segments rest
             | _ -> []
           in
           List.fold_left
             (fun s (a, b) ->
                let pct' =
                  if in_partition a then min 100 (pct * factor) else pct
                in
                { s with
                  Stacks.faults =
                    Net.compose_faults
                      [ s.Stacks.faults;
                        Net.drop_window ~from_time:a ~until_time:b pct' ] })
             s (segments cuts)
         | _ -> s)
      s t.plan
  end

let setup_of t =
  let s =
    match t.base with
    | Opaque s -> s
    | Decl { n; seed; deadline; timer_period; delay } ->
      { (Stacks.default ~n ~deadline) with
        Stacks.seed;
        timer_period;
        delay =
          (match delay with
           | Constant d -> Net.constant d
           | Uniform { min_d; max_d } -> Net.uniform ~min:min_d ~max:max_d) }
  in
  let s = match t.omega with None -> s | Some omega -> { s with Stacks.omega } in
  let s =
    match t.sink with None -> s | Some sink -> { s with Stacks.sink = Some sink }
  in
  apply_plan t s

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

type handles =
  | No_handles
  | Ae_handles of (Etob_omega.t * Anti_entropy.t) array
  | Recoverable_handles of Recoverable.t array * Persist.Store.t array

type outcome = {
  builder : t;
  trace : Trace.t option;
  report : Properties.etob_report option;
  violations : string list;
  digest : string;
  handles : handles;
}

let propose_of t = Option.value t.propose ~default:default_propose

let run ?(digest = false) ?(catch = false) ?guard t =
  let orig = t in
  (* [attempt t capture] runs the (possibly sink-augmented) builder [t];
     when a [capture] trace is teed in through the sink, it supersedes the
     engine's own (then empty) trace for checkers and digests. *)
  let attempt t capture () =
    let setup = setup_of t in
    let inputs = inputs t in
    let trace, handles =
      match t.stack with
      | Etob impl ->
        (Stacks.run_etob ~inputs ?mutation:t.mutation setup impl, No_handles)
      | Etob_ae ->
        let trace, hs =
          Stacks.run_etob_ae ~inputs ?mutation:t.mutation
            ?ae_config:t.ae_config ?ae_mutation:t.ae_mutation setup
        in
        (trace, Ae_handles hs)
      | Recoverable { ae } ->
        let stores =
          match t.stores with
          | Some stores -> stores
          | None -> Persist.Store.pool ~n:setup.Stacks.n
        in
        Adversity.arm_disk_faults t.plan stores;
        let ae_cfg =
          if ae then
            Some (Option.value t.ae_config ~default:Anti_entropy.default_config)
          else None
        in
        let trace, hs, stores =
          Stacks.run_recoverable ~inputs ?rconfig:t.rconfig
            ?mutation:t.rmutation ?etob_mutation:t.mutation ?commits:t.commits
            ?ae:ae_cfg ?ae_mutation:t.ae_mutation ~stores setup
        in
        (trace, Recoverable_handles (hs, stores))
      | Etob_commits ->
        (Stacks.run_etob_with_commits ~inputs setup, No_handles)
      | Gossip -> (Stacks.run_gossip_order ~inputs setup, No_handles)
      | Ec ->
        ( Stacks.run_ec_alg4 ~inputs setup ~propose_value:(propose_of t)
            ~max_instance:t.max_instance,
          No_handles )
      | Ec_lifted ->
        ( Stacks.run_ec_lifted ~inputs setup ~propose_value:(propose_of t)
            ~max_instance:t.max_instance,
          No_handles )
      | Ec_via_etob impl ->
        ( Stacks.run_ec_via_etob ~inputs setup impl
            ~propose_value:(propose_of t) ~max_instance:t.max_instance,
          No_handles )
      | Eic ->
        ( Stacks.run_eic_over_ec ~inputs setup ~propose_value:(propose_of t)
            ~max_instance:t.max_instance,
          No_handles )
      | Ec_via_eic ->
        ( Stacks.run_ec_via_eic ~inputs setup ~propose_value:(propose_of t)
            ~max_instance:t.max_instance,
          No_handles )
    in
    let trace = match capture with Some c -> c | None -> trace in
    let report, violations =
      if t.checkers = [] then (None, [])
      else begin
        let erun = Properties.etob_run_of_trace setup.Stacks.pattern trace in
        let report = Properties.etob_report erun in
        let violations =
          List.concat_map
            (function
              | Etob_spec policy ->
                let bound =
                  match policy with
                  | Tau_auto -> tau_bound t
                  | Tau_fixed bound -> bound
                in
                Properties.etob_violations ~tau_bound:bound report
              | Watchdog policy ->
                let settle, bound =
                  match policy with
                  | Wd_auto -> (watchdog_settle t, watchdog_bound t)
                  | Wd_fixed { settle; bound } -> (settle, bound)
                in
                Watchdog.violations (Watchdog.check ~settle ~bound erun))
            t.checkers
        in
        (Some report, violations)
      end
    in
    let dg = if digest then Trace.digest trace else "" in
    { builder = orig;
      trace = Some trace;
      report;
      violations;
      digest = dg;
      handles }
  in
  (* The trace-file escape hatch and the guard hook share one pattern:
     tee the extra sinks (and the caller's own, if any) with a capturing
     recorder, so the outcome still carries the full trace for checkers
     and digests (an engine given an explicit sink returns an empty
     trace).  The guard fires first, before any recording work, so a
     deadline or event-budget breach raises out of a wedged run at the
     earliest observable point. *)
  let guarded sink =
    match guard with None -> sink | Some g -> Sink.tee (Sink.on_every g) sink
  in
  let go () =
    match t.trace_out with
    | None ->
      (match guard with
       | None -> attempt t None ()
       | Some _ ->
         let capture = Trace.create ~n:(n_of t) in
         let sink = guarded (Sink.recorder capture) in
         let sink =
           match t.sink with
           | None -> sink
           | Some user -> Sink.tee sink user
         in
         attempt { t with sink = Some sink } (Some capture) ())
    | Some (path, format) ->
      let capture = Trace.create ~n:(n_of t) in
      let with_file =
        match format with
        | Jsonl -> Sink.with_jsonl path
        | Binary -> Sink.with_binary path
      in
      with_file (fun file_sink ->
          let sink = guarded (Sink.tee (Sink.recorder capture) file_sink) in
          let sink =
            match t.sink with
            | None -> sink
            | Some user -> Sink.tee sink user
          in
          attempt
            { t with trace_out = None; sink = Some sink }
            (Some capture) ())
  in
  if not catch then go ()
  else
    match go () with
    | o -> o
    | exception e ->
      (* A raising run is a finding, not an infrastructure error: mutants
         may corrupt state into genuinely impossible configurations. *)
      { builder = t;
        trace = None;
        report = None;
        violations = [ "exception: " ^ Printexc.to_string e ];
        digest = "";
        handles = No_handles }

(* ------------------------------------------------------------------ *)
(* Stable text form                                                    *)
(* ------------------------------------------------------------------ *)

let header = "ecsim-spec v1"
let legacy_header = "ecsim-explore-repro v1"

let stack_name = function
  | Etob Stacks.Algorithm_5 -> "alg5"
  | Etob Stacks.Paxos_baseline -> "paxos"
  | Etob Stacks.Algorithm_1_over_4 -> "alg1"
  | Etob_ae -> "alg5+ae"
  | Recoverable { ae = false } -> "recoverable"
  | Recoverable { ae = true } -> "recoverable+ae"
  | Etob_commits -> "alg5+commits"
  | Gossip -> "gossip"
  | Ec -> "ec"
  | Ec_lifted -> "ec-lifted"
  | Ec_via_etob Stacks.Algorithm_5 -> "ec-via-alg5"
  | Ec_via_etob Stacks.Paxos_baseline -> "ec-via-paxos"
  | Ec_via_etob Stacks.Algorithm_1_over_4 -> "ec-via-alg1"
  | Eic -> "eic"
  | Ec_via_eic -> "ec-via-eic"

let stack_of_name = function
  | "alg5" -> Some (Etob Stacks.Algorithm_5)
  | "paxos" -> Some (Etob Stacks.Paxos_baseline)
  | "alg1" -> Some (Etob Stacks.Algorithm_1_over_4)
  | "alg5+ae" -> Some Etob_ae
  | "recoverable" -> Some (Recoverable { ae = false })
  | "recoverable+ae" -> Some (Recoverable { ae = true })
  | "alg5+commits" -> Some Etob_commits
  | "gossip" -> Some Gossip
  | "ec" -> Some Ec
  | "ec-lifted" -> Some Ec_lifted
  | "ec-via-alg5" -> Some (Ec_via_etob Stacks.Algorithm_5)
  | "ec-via-paxos" -> Some (Ec_via_etob Stacks.Paxos_baseline)
  | "ec-via-alg1" -> Some (Ec_via_etob Stacks.Algorithm_1_over_4)
  | "eic" -> Some Eic
  | "ec-via-eic" -> Some Ec_via_eic
  | _ -> None

let pre_to_string = function
  | Detectors.Omega.Self_trust -> "self"
  | Detectors.Omega.Fixed p -> Printf.sprintf "fixed:%d" p
  | Detectors.Omega.Rotating k -> Printf.sprintf "rotating:%d" k
  | Detectors.Omega.Seeded s -> Printf.sprintf "seeded:%d" s
  | Detectors.Omega.Blockwise blocks ->
    "blockwise:"
    ^ String.concat ";"
        (List.map
           (fun block -> String.concat "," (List.map string_of_int block))
           blocks)

let pre_of_string s =
  match String.index_opt s ':' with
  | None -> if s = "self" then Some Detectors.Omega.Self_trust else None
  | Some i ->
    let kind = String.sub s 0 i in
    let arg = String.sub s (i + 1) (String.length s - i - 1) in
    (match kind with
     | "fixed" ->
       Option.map (fun p -> Detectors.Omega.Fixed p) (int_of_string_opt arg)
     | "rotating" ->
       Option.map (fun k -> Detectors.Omega.Rotating k) (int_of_string_opt arg)
     | "seeded" ->
       Option.map (fun s -> Detectors.Omega.Seeded s) (int_of_string_opt arg)
     | "blockwise" ->
       let blocks =
         List.map
           (fun block ->
              List.map int_of_string_opt (String.split_on_char ',' block))
           (String.split_on_char ';' arg)
       in
       if List.exists (List.mem None) blocks then None
       else
         Some
           (Detectors.Omega.Blockwise (List.map (List.map Option.get) blocks))
     | _ -> None)

(* Violation messages come from Format and may contain line breaks; the
   file format is line-oriented, so collapse each onto a single line. *)
let one_line s =
  String.concat " "
    (List.filter (fun w -> w <> "")
       (String.split_on_char ' '
          (String.map (function '\n' | '\t' | '\r' -> ' ' | c -> c) s)))

let mix_ok (name, _) =
  name <> ""
  && String.for_all
       (fun c -> c <> ',' && c <> ':' && c <> ' ' && c <> '=')
       name

let workload_lines = function
  | No_posts -> [ "workload none" ]
  | Posts { count; from_time; every } ->
    [ Printf.sprintf "workload posts count=%d from=%d every=%d" count
        from_time every ]
  | Auto_posts { count; stretch } ->
    [ Printf.sprintf "workload auto count=%d stretch=%s" count
        (if stretch then "on" else "off") ]
  | Weighted { count; from_time; every; jitter; mix } ->
    if not (List.for_all mix_ok mix) then
      invalid_arg "Builder.to_lines: weighted mix names must be plain words";
    [ Printf.sprintf "workload weighted count=%d from=%d every=%d jitter=%d mix=%s"
        count from_time every jitter
        (String.concat ","
           (List.map (fun (name, w) -> Printf.sprintf "%s:%d" name w) mix)) ]
  | Explicit posts ->
    "workload explicit"
    :: List.map
      (fun (tm, p, tag) -> Printf.sprintf "post %d %d %s" tm p tag)
      posts
  | Raw _ -> invalid_arg "Builder.to_lines: Raw workloads are not serializable"

let checker_line = function
  | Etob_spec Tau_auto -> "check etob tau=auto"
  | Etob_spec (Tau_fixed bound) -> Printf.sprintf "check etob tau=%d" bound
  | Watchdog Wd_auto -> "check watchdog auto"
  | Watchdog (Wd_fixed { settle; bound }) ->
    Printf.sprintf "check watchdog settle=%d bound=%d" settle bound

let to_lines ?digest ?(violations = []) t =
  let d =
    match t.base with
    | Decl d -> d
    | Opaque _ -> invalid_arg "Builder.to_lines: opaque bases are not serializable"
  in
  (match (t.rconfig, t.ae_config, t.commits) with
   | None, None, None -> ()
   | _ ->
     invalid_arg "Builder.to_lines: config escape hatches are not serializable");
  (match (t.stores, t.sink, t.propose, t.trace_out) with
   | None, None, None, None -> ()
   | _ ->
     invalid_arg "Builder.to_lines: handle escape hatches are not serializable");
  [ header;
    "stack " ^ stack_name t.stack;
    Printf.sprintf "n %d" d.n;
    Printf.sprintf "seed %d" d.seed;
    Printf.sprintf "deadline %d" d.deadline;
    Printf.sprintf "timer-period %d" d.timer_period;
    (match d.delay with
     | Constant dl -> Printf.sprintf "delay constant %d" dl
     | Uniform { min_d; max_d } ->
       Printf.sprintf "delay uniform min=%d max=%d" min_d max_d) ]
  @ (match t.omega with
     | None -> []
     | Some (Stacks.Oracle { stabilize_at; pre }) ->
       [ Printf.sprintf "omega oracle stable=%d pre=%s" stabilize_at
           (pre_to_string pre) ]
     | Some (Stacks.Elected { initial_timeout }) ->
       [ Printf.sprintf "omega elected timeout=%d" initial_timeout ])
  @ workload_lines t.workload
  @ (match t.service with
     | None -> []
     | Some s -> [ "service " ^ Service_spec.to_string s ])
  @ (match t.mutation with
     | None -> []
     | Some m -> [ "mutant " ^ Etob_omega.mutation_name m ])
  @ (match t.rmutation with
     | None -> []
     | Some m -> [ "rmutant " ^ Recoverable.mutation_name m ])
  @ (match t.ae_mutation with
     | None -> []
     | Some m -> [ "ae-mutant " ^ Anti_entropy.mutation_name m ])
  @ List.map
    (fun (Drop_boost_while_partitioned { factor }) ->
       Printf.sprintf "boost drop-while-partitioned factor=%d" factor)
    t.boosts
  @ List.map checker_line t.checkers
  @ (if t.max_instance > 0 then
       [ Printf.sprintf "max-instance %d" t.max_instance ]
     else [])
  @ (match t.budget with
     | None -> []
     | Some b -> [ Printf.sprintf "budget %d" b ])
  @ (match digest with
     | None -> []
     | Some dg -> [ "digest " ^ (if dg = "" then "-" else dg) ])
  @ List.map (fun v -> "violation " ^ one_line v) violations
  @ [ Printf.sprintf "plan %d" (Adversity.size t.plan) ]
  @ Adversity.to_lines t.plan
  @ [ "end" ]

let to_string ?digest ?violations t =
  String.concat "\n" (to_lines ?digest ?violations t) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Exploration and shrinking                                           *)
(* ------------------------------------------------------------------ *)

type exploration = { found : outcome option; plans_run : int; budget : int }

(* Sequential mode stops at the first violation; parallel mode fans chunks
   over domains through [Sweep.map_safe] and stops after the first chunk
   containing one, always reporting the lowest-index violation for
   determinism across domain counts. *)
let explore ?(domains = 1) ?(on_progress = fun ~plans_run:_ -> ()) ~gen
    ~budget () =
  let finish found plans_run = { found; plans_run; budget } in
  if domains <= 1 then begin
    let rec go i =
      if i >= budget then finish None budget
      else begin
        let o = run ~digest:true ~catch:true (gen i) in
        if o.violations <> [] then finish (Some o) (i + 1)
        else begin
          on_progress ~plans_run:(i + 1);
          go (i + 1)
        end
      end
    in
    go 0
  end
  else begin
    let chunk = domains * 4 in
    let rec go i =
      if i >= budget then finish None budget
      else begin
        let hi = min budget (i + chunk) in
        let idxs = List.init (hi - i) (fun j -> i + j) in
        (* The sweep context attaches the failing plan's spec text to the
           error payload, so an uncaught worker exception is reproducible
           without re-running the exploration (builders with opaque
           clauses have no text form; name the index instead). *)
        let context ~seed:idx =
          match to_lines (gen idx) with
          | lines -> String.concat "\n" lines
          | exception Invalid_argument _ ->
            Printf.sprintf "<plan %d: no spec form>" idx
        in
        let results =
          Sweep.map_safe ~domains ~context ~seeds:idxs (fun ~seed:idx ->
              run ~digest:true ~catch:true (gen idx))
        in
        let outcomes =
          List.map
            (fun (r : _ Sweep.result) ->
               match r.Sweep.value with
               | Ok o -> o
               | Error e ->
                 { builder = gen r.Sweep.seed;
                   trace = None;
                   report = None;
                   violations = [ "exception: " ^ e ];
                   digest = "";
                   handles = No_handles })
            results
        in
        match List.find_opt (fun o -> o.violations <> []) outcomes with
        | Some o -> finish (Some o) hi
        | None ->
          on_progress ~plans_run:hi;
          go hi
      end
    in
    go 0
  end

(* Greedy minimization to a local minimum: repeatedly drop whole
   adversities while a violation survives, then substitute each spec's
   weaker variants (re-running removal after every successful weakening).
   [rebuild] maps the candidate plan back to a builder, so the caller can
   re-derive plan-dependent choices (e.g. the stack).  Terminates because
   removal shrinks the plan and every [Adversity.weaken] variant strictly
   decreases a positive integer measure of its spec. *)
let shrink ~rebuild (o : outcome) =
  let try_plan plan =
    let o' = run ~digest:true ~catch:true (rebuild plan) in
    if o'.violations <> [] then Some o' else None
  in
  let rec drop_pass o =
    let plan = o.builder.plan in
    let len = List.length plan in
    let rec try_at i =
      if i >= len then None
      else
        match try_plan (List.filteri (fun j _ -> j <> i) plan) with
        | Some o' -> Some o'
        | None -> try_at (i + 1)
    in
    match try_at 0 with Some o' -> drop_pass o' | None -> o
  in
  let rec weaken_pass o =
    let plan = Array.of_list o.builder.plan in
    let weaker_at i =
      List.find_map
        (fun weaker ->
           try_plan
             (Array.to_list
                (Array.mapi (fun j s -> if j = i then weaker else s) plan)))
        (Adversity.weaken plan.(i))
    in
    let rec at i =
      if i >= Array.length plan then None
      else match weaker_at i with Some o' -> Some o' | None -> at (i + 1)
    in
    match at 0 with Some o' -> weaken_pass (drop_pass o') | None -> o
  in
  weaken_pass (drop_pass o)

exception Parse of string

let parse_fail fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt
let at lineno fmt = Printf.ksprintf (fun m -> parse_fail "line %d: %s" lineno m) fmt

(* A value the run itself would reject is a parse error on its own line,
   so a bad spec fails with its position instead of raising mid-run. *)
let at_least lineno lo what v =
  if v < lo then at lineno "%s must be >= %d, got %d" what lo v;
  v

let int_at lineno v =
  match int_of_string_opt v with
  | Some i -> i
  | None -> at lineno "expected an integer, got %S" v

(* Key=value fields of a line tail, repro-file style. *)
let kv_fields fields =
  List.filter_map
    (fun f ->
       match String.index_opt f '=' with
       | None -> None
       | Some i ->
         Some
           (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1)))
    fields

let tokens_of line =
  List.filter (( <> ) "") (String.split_on_char ' ' (String.trim line))

let spec_procs = function
  | Adversity.Crash { proc; _ }
  | Adversity.Crash_recover { proc; _ }
  | Adversity.Disk_fault { proc; _ } -> [ proc ]
  | Adversity.Partition { left; _ }
  | Adversity.Lossy_partition { left; _ }
  | Adversity.Oneway_partition { left; _ }
  | Adversity.Flapping_partition { left; _ } -> left
  | Adversity.Delay_spike { link = Some (src, dst); _ } -> [ src; dst ]
  | Adversity.Delay_spike { link = None; _ }
  | Adversity.Drop _ | Adversity.Duplicate _ | Adversity.Omega_flap _ -> []

(* Take [count] plan lines (the "plan" header is line [lineno]), expect
   "end", and keep every process inside [0, n). *)
let parse_plan_section ~n ~lineno ~count rest =
  if count < 0 then at lineno "plan count must be >= 0, got %d" count;
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] ->
      parse_fail "plan section truncated: expected %d adversity lines" count
    | l :: rest -> take (k - 1) (l :: acc) rest
  in
  let plan_lines, tail = take count [] rest in
  (match tail with
   | [ (_, "end") ] -> ()
   | (lineno, l) :: _ ->
     at lineno "expected end after %d plan lines, got %S" count l
   | [] -> parse_fail "missing end line (file truncated?)");
  List.map
    (fun (lineno, l) ->
       match Adversity.of_line l with
       | Ok spec ->
         List.iter
           (fun p ->
              if p < 0 || p >= n then
                at lineno "process %d outside [0, %d) in %S" p n l)
           (spec_procs spec);
         spec
       | Error msg -> at lineno "%s" msg)
    plan_lines

(* The spec reader.  v1 text is read as it is and its plan normalized.
   Legacy text passes each header line through [legacy], which returns
   the v1 clauses read in its place, and keeps its plan verbatim. *)
let parse_spec ?legacy rest =
  let t = ref (create ~n:4 ~deadline:240 (Etob Stacks.Algorithm_5)) in
  let set_decl f =
    match !t.base with
    | Decl d -> t := { !t with base = Decl (f d) }
    | Opaque _ -> assert false
  in
  let checkers = ref [] and boosts = ref [] and posts = ref [] in
  let explicit = ref false in
  let finish plan =
    let n = n_of !t in
    List.iter
      (fun (lineno, (_, p, _)) ->
         if p < 0 || p >= n then at lineno "post process %d outside [0, %d)" p n)
      !posts;
    let workload =
      if !explicit then Explicit (List.rev_map snd !posts) else !t.workload
    in
    { !t with
      workload;
      plan = (match legacy with None -> Adversity.make plan | Some _ -> plan);
      checkers = List.rev !checkers;
      boosts = List.rev !boosts }
  in
  (* One header clause (anything but the plan line), as its tokens. *)
  let clause lineno line tokens =
    let int v = int_at lineno v in
    let kv_int kv k =
      match List.assoc_opt k kv with
      | Some v -> int v
      | None -> at lineno "missing field %s" k
    in
    let kv_nat kv k = at_least lineno 0 k (kv_int kv k) in
    match tokens with
    | [] -> ()
    | "stack" :: [ name ] ->
      (match stack_of_name name with
       | Some stack -> t := { !t with stack }
       | None -> at lineno "unknown stack %S" name)
    | "n" :: [ v ] ->
      let n = at_least lineno 2 "n" (int v) in
      set_decl (fun d -> { d with n })
    | "seed" :: [ v ] ->
      set_decl (fun d -> { d with seed = int v })
    | "deadline" :: [ v ] ->
      let deadline = at_least lineno 1 "deadline" (int v) in
      set_decl (fun d -> { d with deadline })
    | "timer-period" :: [ v ] ->
      let timer_period = at_least lineno 1 "timer-period" (int v) in
      set_decl (fun d -> { d with timer_period })
    | "delay" :: "constant" :: [ v ] ->
      let dl = at_least lineno 1 "delay" (int v) in
      set_decl (fun d -> { d with delay = Constant dl })
    | "delay" :: "uniform" :: fields ->
      let kv = kv_fields fields in
      let min_d = at_least lineno 1 "delay min" (kv_int kv "min") in
      let max_d = kv_int kv "max" in
      if max_d < min_d then
        at lineno "delay max %d is below min %d" max_d min_d;
      set_decl (fun d -> { d with delay = Uniform { min_d; max_d } })
    | "omega" :: "oracle" :: fields ->
      let kv = kv_fields fields in
      let pre =
        match List.assoc_opt "pre" kv with
        | None -> Detectors.Omega.Self_trust
        | Some p ->
          (match pre_of_string p with
           | Some pre -> pre
           | None -> at lineno "unknown omega pre-behaviour %S" p)
      in
      t :=
        { !t with
          omega =
            Some (Stacks.Oracle { stabilize_at = kv_int kv "stable"; pre })
        }
    | "omega" :: "elected" :: fields ->
      let kv = kv_fields fields in
      t :=
        { !t with
          omega =
            Some
              (Stacks.Elected
                 { initial_timeout =
                     at_least lineno 1 "timeout" (kv_int kv "timeout") })
        }
    | "workload" :: [ "none" ] ->
      t := { !t with workload = No_posts }
    | "workload" :: "posts" :: fields ->
      let kv = kv_fields fields in
      t :=
        { !t with
          workload =
            Posts
              { count = kv_nat kv "count";
                from_time = kv_nat kv "from";
                every = kv_nat kv "every" } }
    | "workload" :: "auto" :: fields ->
      let kv = kv_fields fields in
      let stretch =
        match List.assoc_opt "stretch" kv with
        | Some "on" | Some "true" -> true
        | Some "off" | Some "false" | None -> false
        | Some v -> at lineno "stretch must be on or off, got %S" v
      in
      t :=
        { !t with
          workload = Auto_posts { count = kv_nat kv "count"; stretch } }
    | "workload" :: "weighted" :: fields ->
      let kv = kv_fields fields in
      let mix =
        match List.assoc_opt "mix" kv with
        | None -> at lineno "missing field mix"
        | Some m ->
          List.map
            (fun entry ->
               match String.index_opt entry ':' with
               | None -> at lineno "bad mix entry %S" entry
               | Some i ->
                 ( String.sub entry 0 i,
                   int
                     (String.sub entry (i + 1)
                        (String.length entry - i - 1)) ))
            (String.split_on_char ',' m)
      in
      t :=
        { !t with
          workload =
            Weighted
              { count = kv_nat kv "count";
                from_time = kv_nat kv "from";
                every = kv_nat kv "every";
                jitter = kv_nat kv "jitter";
                mix } }
    | [ "workload"; "explicit" ] ->
      explicit := true
    | "post" :: tm :: p :: tag_words when !explicit ->
      posts :=
        ( lineno,
          ( at_least lineno 0 "post time" (int tm),
            int p,
            String.concat " " tag_words ) )
        :: !posts
    | "service" :: fields ->
      (match Service_spec.of_fields (kv_fields fields) with
       | Ok s -> t := { !t with service = Some s }
       | Error msg -> at lineno "service: %s" msg)
    | "mutant" :: [ v ] ->
      (if v <> "none" then
         match Etob_omega.mutation_of_string v with
         | Some m -> t := { !t with mutation = Some m }
         | None -> at lineno "unknown mutant %S" v)
    | "rmutant" :: [ v ] ->
      (if v <> "none" then
         match Recoverable.mutation_of_string v with
         | Some m -> t := { !t with rmutation = Some m }
         | None -> at lineno "unknown recovery mutant %S" v)
    | "ae-mutant" :: [ v ] ->
      (if v <> "none" then
         match Anti_entropy.mutation_of_string v with
         | Some m -> t := { !t with ae_mutation = Some m }
         | None -> at lineno "unknown anti-entropy mutant %S" v)
    | "boost" :: "drop-while-partitioned" :: fields ->
      let kv = kv_fields fields in
      boosts :=
        Drop_boost_while_partitioned { factor = kv_int kv "factor" }
        :: !boosts
    | "check" :: "etob" :: fields ->
      let kv = kv_fields fields in
      let policy =
        match List.assoc_opt "tau" kv with
        | Some "auto" | None -> Tau_auto
        | Some v -> Tau_fixed (int v)
      in
      checkers := Etob_spec policy :: !checkers
    | [ "check"; "watchdog"; "auto" ] ->
      checkers := Watchdog Wd_auto :: !checkers
    | "check" :: "watchdog" :: fields ->
      let kv = kv_fields fields in
      checkers :=
        Watchdog
          (Wd_fixed
             { settle = kv_int kv "settle"; bound = kv_int kv "bound" })
        :: !checkers
    | "max-instance" :: [ v ] ->
      t := { !t with max_instance = int v }
    | "budget" :: [ v ] ->
      t := { !t with budget = Some (int v) }
    | "digest" :: _ | "violation" :: _ -> ()
    | _ -> at lineno "unknown spec line %S" line
  in
  (* One header line; the plan line ends the headers: its section
     follows in [rest]. *)
  let header rest (lineno, line) =
    match tokens_of line with
    | [ "plan"; v ] ->
      let count = int_at lineno v in
      Some (finish (parse_plan_section ~n:(n_of !t) ~lineno ~count rest))
    | tokens ->
      clause lineno line tokens;
      None
  in
  let rec headers = function
    | [] -> parse_fail "missing plan section (file truncated?)"
    | l :: rest ->
      let parsed =
        match legacy with
        | None -> header rest l
        | Some expand -> List.find_map (header rest) (expand l)
      in
      (match parsed with Some t -> t | None -> headers rest)
  in
  headers rest

(* The legacy repro header is an explorer target written as key/value
   lines, read as v1 text.  Lines that already are v1 clauses pass
   through with their line numbers; the seven target-only keys are
   validated on their own lines and become, in front of the plan line,
   the clauses the explorer writes (a uniform delay, the auto workload,
   the plan-aware checkers); the legacy defaults, which differ from
   [create]'s, are written out first; and once the plan is read,
   [target_stack] picks the stack exactly as for the explorer, so a
   recorded repro replays byte-identically.  The plan is kept verbatim
   (not normalized). *)
let parse_legacy rest =
  let impl = ref Stacks.Algorithm_5 and posts = ref 12 in
  let base_min = ref 1 and base_max = ref (0, 3) in
  let recovery = ref false and ae = ref false and watchdog = ref false in
  let legacy ((lineno, line) as l) =
    let key, v =
      match String.index_opt line ' ' with
      | None -> (line, "")
      | Some i ->
        ( String.sub line 0 i,
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
    in
    let int = int_at lineno in
    let flag r =
      match v with
      | "on" | "true" -> r := true
      | "off" | "false" -> r := false
      | _ -> at lineno "%s must be on or off, got %S" key v
    in
    match key with
    | "n" | "seed" | "deadline" | "timer-period" | "mutant" | "rmutant"
    | "ae-mutant" | "digest" | "violation" ->
      [ l ]
    | "plan" ->
      let base_max_line, base_max = !base_max in
      if base_max < !base_min then
        at base_max_line "base-max %d is below base-min %d" base_max !base_min;
      (* A count that is not one integer fails as a header value. *)
      ignore (int v : int);
      List.map
        (fun c -> (lineno, c))
        ([ Printf.sprintf "delay uniform min=%d max=%d" !base_min base_max;
           Printf.sprintf "workload auto count=%d stretch=%s" !posts
             (if !recovery then "on" else "off");
           "check etob tau=auto" ]
         @ if !watchdog then [ "check watchdog auto" ] else [])
      @ [ l ]
    | "impl" ->
      (match stack_of_name v with
       | Some (Etob i) -> impl := i
       | _ -> at lineno "unknown impl %S" v);
      []
    | "posts" -> posts := at_least lineno 0 "posts" (int v); []
    | "base-min" -> base_min := at_least lineno 1 "base-min" (int v); []
    | "base-max" -> base_max := (lineno, int v); []
    | "recovery" -> flag recovery; []
    | "ae" -> flag ae; []
    | "watchdog" -> flag watchdog; []
    | k -> at lineno "unknown header %S" k
  in
  let defaults =
    List.map
      (fun c -> (0, c))
      [ "n 4"; "seed 0"; "deadline 240"; "timer-period 2" ]
  in
  let t = parse_spec ~legacy (defaults @ rest) in
  { t with stack = target_stack !impl ~recovery:!recovery ~ae:!ae t }

let of_lines lines =
  let lines =
    List.filteri
      (fun _ (_, l) -> l <> "")
      (List.mapi (fun i l -> (i + 1, String.trim l)) lines)
  in
  let parse () =
    match lines with
    | (_, h) :: rest when h = header -> parse_spec rest
    | (_, h) :: rest when h = legacy_header -> parse_legacy rest
    | (lineno, l) :: _ ->
      parse_fail "line %d: not a %s or %s file (found %S)" lineno header
        legacy_header l
    | [] -> parse_fail "empty file: not a %s file" header
  in
  match parse () with t -> Ok t | exception Parse msg -> Error msg

let of_string s = of_lines (String.split_on_char '\n' s)

let recorded_digest s =
  List.find_map
    (fun line ->
       match tokens_of line with
       | [ "digest"; v ] when v <> "-" -> Some v
       | _ -> None)
    (String.split_on_char '\n' s)

let write path ?digest ?violations t =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string ?digest ?violations t))

let read path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error msg -> Error msg

(* The replay verdict, two-sided: a recorded digest must be reproduced
   byte for byte, and the re-run must violate exactly when the text
   records violations — a recorded finding that comes back clean and a
   clean record that comes back violating are both failures. *)
let replay text =
  match of_string text with
  | Error msg -> Error ("spec parse: " ^ msg)
  | Ok t ->
    let o = run ~digest:true ~catch:true t in
    let recorded_violation =
      List.exists
        (fun line ->
           match tokens_of line with "violation" :: _ -> true | _ -> false)
        (String.split_on_char '\n' text)
    in
    (match recorded_digest text with
     | Some d when d <> o.digest ->
       Error
         (Printf.sprintf
            "digest mismatch: recorded %s, replayed %s (did the protocol or \
             engine change?)"
            d o.digest)
     | _ ->
       if recorded_violation && o.violations = [] then
         Error "recorded violation did not reproduce: the replay was clean"
       else if (not recorded_violation) && o.violations <> [] then
         Error
           ("the file records no violation but the replay violated: "
            ^ String.concat "; " o.violations)
       else Ok o)

(* ------------------------------------------------------------------ *)
(* Binary trace artifacts                                              *)
(* ------------------------------------------------------------------ *)

(* A binary trace artifact is a self-contained replay unit: the event
   stream written by [trace_out], followed by one appended spec record
   carrying the run's spec text (with digest and violations).  Appending
   is legal in the frame format — readers take the last spec record — so
   the spec, known only after the run, never has to be seeked in. *)

let append_binary_spec path ?digest ?violations t =
  let text = to_string ?digest ?violations t in
  let oc = Out_channel.open_gen [ Open_append; Open_binary ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> Out_channel.close_noerr oc)
    (fun () -> Out_channel.output_string oc (Persist.Frame.spec_record text))

let binary_spec path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents ->
    (match Persist.Frame.decode contents with
     | Error e -> Error (Format.asprintf "%s: %a" path Persist.Frame.pp_error e)
     | Ok items ->
       (match Persist.Frame.spec items with
        | Some text -> Ok text
        | None -> Error (path ^ ": binary trace carries no spec record")))
