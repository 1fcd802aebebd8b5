(* Run-property checkers.

   Each checker decides one property from Section 3 (or Appendix A) of the
   paper over a finished run's trace.  A run is finite, so the "eventually"
   clauses are interpreted against the run horizon: e.g. TOB-Validity
   becomes "the message is in the broadcaster's final delivered sequence",
   and the stabilization times tau are *measured* rather than asserted.
   Tests pick horizons comfortably past all scheduled stabilizations, so a
   failed check is a genuine violation, and benches report the measured tau
   against the paper's bound tau_Omega + Delta_t + Delta_c (Lemma 3). *)

open Simulator
open Simulator.Types

type verdict = { ok : bool; violations : string list }

let pass = { ok = true; violations = [] }

let fail violations = { ok = false; violations }

let of_violations violations = { ok = violations = []; violations }

let combine verdicts =
  of_violations (List.concat_map (fun v -> v.violations) verdicts)

let pp_verdict ppf v =
  if v.ok then Fmt.string ppf "ok"
  else Fmt.pf ppf "@[<v>FAIL:@,%a@]" (Fmt.list Fmt.string) v.violations

(* ------------------------------------------------------------------ *)
(* ETOB runs                                                           *)
(* ------------------------------------------------------------------ *)

type etob_run = {
  e_pattern : Failures.pattern;
  e_horizon : time;
  (* Every broadcastETOB(m) event: (time, broadcaster, m). *)
  e_broadcasts : (time * proc_id * App_msg.t) list;
  (* Per process, the chronological revisions of d_i: (time, sequence). *)
  e_snapshots : (time * App_msg.t list) list array;
  (* Per process, the last revision's sequence (the final d_i). *)
  e_final : App_msg.t list array;
  (* The time of the first broadcast of every broadcast id. *)
  e_first_broadcast : time App_msg.Id_map.t;
}

let etob_run_of_trace pattern trace =
  let n = Failures.n pattern in
  let broadcasts = ref [] in
  let snapshots = Array.make n [] in
  List.iter
    (fun (t, p, o) ->
       match o with
       | Etob_intf.Etob_broadcast m -> broadcasts := (t, p, m) :: !broadcasts
       | Etob_intf.Etob_deliver seq -> snapshots.(p) <- (t, seq) :: snapshots.(p)
       | _ -> ())
    (Trace.outputs trace);
  let broadcasts = List.rev !broadcasts in
  let first_broadcast =
    List.fold_left
      (fun acc (t, _, m) ->
         let id = App_msg.id m in
         if App_msg.Id_map.mem id acc then acc else App_msg.Id_map.add id t acc)
      App_msg.Id_map.empty broadcasts
  in
  { e_pattern = pattern;
    e_horizon = Trace.last_time trace;
    e_broadcasts = broadcasts;
    e_snapshots = Array.map List.rev snapshots;
    e_final = Array.map (function [] -> [] | (_, seq) :: _ -> seq) snapshots;
    e_first_broadcast = first_broadcast }

let final_d run p = run.e_final.(p)

(* d_p(t): the last revision at or before t (initially the empty sequence). *)
let d_at run p t =
  let rec scan best = function
    | [] -> best
    | (t', seq) :: rest -> if t' <= t then scan seq rest else best
  in
  scan [] run.e_snapshots.(p)

let correct_procs run = Failures.correct run.e_pattern

let revisions run p = run.e_snapshots.(p)

let broadcasts run = run.e_broadcasts

let horizon run = run.e_horizon

let broadcast_time run m = App_msg.Id_map.find_opt (App_msg.id m) run.e_first_broadcast

let str fmt = Format.asprintf fmt

(* Position tables: id -> position of its first occurrence in a sequence
   (the first occurrence wins).  Keyed through an explicit hash of the
   (origin, sn) ints, so there is no polymorphic hash at a protocol type,
   and only ever probed, never iterated. *)
module Id_tbl = Hashtbl.Make (struct
    type t = App_msg.id
    let equal a b = App_msg.compare_id a b = 0
    let hash ((p, sn) : App_msg.id) =
      let h = (p * 0x2545F491) lxor (sn * 0x9E3779B9) in
      h lxor (h lsr 17)
  end)

let fill_positions tbl seq =
  Id_tbl.clear tbl;
  List.iteri
    (fun i m ->
       let id = App_msg.id m in
       if not (Id_tbl.mem tbl id) then Id_tbl.add tbl id i)
    seq

(* [seq_a]'s messages that occur in [tbl]'s sequence sit at strictly
   increasing (first) positions there. *)
let agrees_with tbl seq_a =
  let rec walk prev = function
    | [] -> true
    | m :: rest ->
      (match Id_tbl.find_opt tbl (App_msg.id m) with
       | None -> walk prev rest
       | Some j -> j > prev && walk j rest)
  in
  walk (-1) seq_a

(* TOB-Validity: a correct broadcaster eventually stably delivers its own
   message (finite-run form: it is in the broadcaster's final d). *)
let check_validity run =
  of_violations
    (List.filter_map
       (fun (t, p, m) ->
          if Failures.is_correct run.e_pattern p
          && not (List.exists (App_msg.equal m) (final_d run p))
          then Some (str "validity: %a broadcast by %a at %d missing from its final d"
                       App_msg.pp m pp_proc p t)
          else None)
       run.e_broadcasts)

(* TOB-No-creation: every delivered message was broadcast no later than its
   delivery.  (Same-tick is allowed: a broadcaster may output its own
   message within the very step that broadcasts it, and the discrete clock
   cannot order events inside one step.) *)
let check_no_creation run =
  let violations = ref [] in
  Array.iteri
    (fun p revs ->
       List.iter
         (fun (t, seq) ->
            List.iter
              (fun m ->
                 match broadcast_time run m with
                 | Some tb when tb <= t -> ()
                 | Some tb ->
                   violations :=
                     str "no-creation: %a in d_%a at %d but broadcast at %d"
                       App_msg.pp m pp_proc p t tb :: !violations
                 | None ->
                   violations :=
                     str "no-creation: %a in d_%a at %d was never broadcast"
                       App_msg.pp m pp_proc p t :: !violations)
              seq)
         revs)
    run.e_snapshots;
  of_violations (List.rev !violations)

(* TOB-No-duplication: no message appears twice in any d_i(t). *)
let check_no_duplication run =
  let violations = ref [] in
  Array.iteri
    (fun p revs ->
       List.iter
         (fun (t, seq) ->
            let ids = List.map App_msg.id seq in
            if List.length (List.sort_uniq App_msg.compare_id ids) <> List.length ids then
              violations :=
                str "no-duplication: duplicate in d_%a at %d: %a" pp_proc p t
                  App_msg.pp_seq seq :: !violations)
         revs)
    run.e_snapshots;
  of_violations (List.rev !violations)

(* TOB-Agreement (finite-run form): a message in the final d of one correct
   process is in the final d of every correct process. *)
let check_agreement run =
  let correct = correct_procs run in
  let finals = List.map (fun q -> (q, App_msg.ids_of_seq (final_d run q))) correct in
  let violations = ref [] in
  List.iter
    (fun p ->
       List.iter
         (fun m ->
            let id = App_msg.id m in
            List.iter
              (fun (q, ids) ->
                 if not (App_msg.Id_set.mem id ids) then
                   violations :=
                     str "agreement: %a in final d_%a but not in final d_%a"
                       App_msg.pp m pp_proc p pp_proc q :: !violations)
              finals)
         (final_d run p))
    correct;
  of_violations (List.sort_uniq String.compare (List.rev !violations))

(* The measured ETOB-Stability time: the earliest tau such that for every
   correct process, every revision at time >= tau extends (has as a prefix)
   the previous revision.  0 means the run satisfies strong TOB-Stability. *)
let stability_time run =
  let tau = ref 0 in
  List.iter
    (fun p ->
       let rec scan prev = function
         | [] -> ()
         | (t, seq) :: rest ->
           if not (App_msg.is_prefix prev seq) then tau := max !tau t;
           scan seq rest
       in
       scan [] run.e_snapshots.(p))
    (correct_procs run);
  !tau

(* Relative order of the common messages of two sequences agrees.
   Asymmetric under a duplicate id in [seq_a]: [x;y;x] against [x;y]
   revisits position 0 and fails, while [x;y] against [x;y;x] holds. *)
let orders_agree seq_a seq_b =
  let tbl = Id_tbl.create 16 in
  fill_positions tbl seq_b;
  agrees_with tbl seq_a

(* The measured ETOB-Total-order time: the earliest tau such that at every
   revision time >= tau (of any process, faulty ones included), all pairs
   of correct processes order their common messages consistently.

   One forward sweep over the sorted revision times.  Each correct process
   keeps a cursor into its revisions (advanced past every revision at or
   before the current time, so d_p(t) is the last one consumed), its
   current d_p and that sequence's position table.  At each time only the
   pairs touching a process whose cursor moved are re-compared; [bad]
   holds every pair's verdict and [inconsistent] their running count.  A
   pair (p, q) is compared in one direction only, p before q in
   [Failures.correct] order, walking d_p against q's table. *)
let total_order_time run =
  let times =
    List.sort_uniq Int.compare
      (Array.to_list run.e_snapshots |> List.concat_map (List.map fst))
  in
  let procs = Array.of_list (correct_procs run) in
  let k = Array.length procs in
  let rest = Array.map (fun p -> run.e_snapshots.(p)) procs in
  let cur = Array.make k [] in
  let tbl = Array.init k (fun _ -> Id_tbl.create 16) in
  let revised = Array.make k false in
  let bad = Array.make_matrix k k false in
  let inconsistent = ref 0 in
  let recheck i j =
    let now_bad = not (agrees_with tbl.(j) cur.(i)) in
    if now_bad <> bad.(i).(j) then begin
      bad.(i).(j) <- now_bad;
      inconsistent := !inconsistent + if now_bad then 1 else -1
    end
  in
  (* Consume i's revisions at or before [t]; true iff there was one. *)
  let rec advance i t moved = function
    | (t', seq) :: later when t' <= t -> cur.(i) <- seq; advance i t true later
    | remaining -> rest.(i) <- remaining; moved
  in
  List.fold_left
    (fun tau t ->
       let moved = ref [] in
       for i = k - 1 downto 0 do
         revised.(i) <- advance i t false rest.(i);
         if revised.(i) then begin
           fill_positions tbl.(i) cur.(i);
           moved := i :: !moved
         end
       done;
       List.iter
         (fun i ->
            for j = 0 to k - 1 do
              if j > i then recheck i j
              else if j < i && not revised.(j) then recheck j i
            done)
         !moved;
       if !inconsistent > 0 then max tau (t + 1) else tau)
    0 times

(* TOB-Causal-Order: in every d_i(t), every dependency of a message that is
   present appears earlier.  The paper requires this at ALL times for
   Algorithm 5 — no tau. *)
let check_causal_order run =
  let positions = Id_tbl.create 16 in
  let violations = ref [] in
  Array.iteri
    (fun p revs ->
       List.iter
         (fun (t, seq) ->
            fill_positions positions seq;
            List.iteri
              (fun i m ->
                 List.iter
                   (fun dep ->
                      match Id_tbl.find_opt positions dep with
                      | Some j when j < i -> ()
                      | Some _ ->
                        violations :=
                          str "causal-order: dep %a after %a in d_%a at %d"
                            App_msg.pp_id dep App_msg.pp m pp_proc p t :: !violations
                      | None -> () (* dependency not delivered: order vacuous *))
                   m.App_msg.deps)
              seq)
         revs)
    run.e_snapshots;
  of_violations (List.rev !violations)

(* Algorithm 5 additionally delivers dependencies before dependents; checking
   presence is a stronger, implementation-specific property. *)
let check_deps_present run =
  let violations = ref [] in
  Array.iteri
    (fun p revs ->
       List.iter
         (fun (t, seq) ->
            let ids = App_msg.ids_of_seq seq in
            List.iter
              (fun m ->
                 List.iter
                   (fun dep ->
                      if not (App_msg.Id_set.mem dep ids) then
                        violations :=
                          str "deps-present: dep %a of %a missing from d_%a at %d"
                            App_msg.pp_id dep App_msg.pp m pp_proc p t :: !violations)
                   m.App_msg.deps)
              seq)
         revs)
    run.e_snapshots;
  of_violations (List.rev !violations)

(* The paper assumes broadcast messages are distinct; the (origin, sn)
   identification realizes the assumption as long as no process ever
   re-allocates a sequence number.  A crash-recovered process that lost
   its allocation state (amnesia — e.g. the skip-log-replay mutant of the
   recoverable wrapper) breaks exactly this: it broadcasts a second,
   different message under an already-used id.  We check the assumption
   rather than assume it. *)
let check_distinct_broadcasts run =
  let violations = ref [] in
  let seen = ref App_msg.Id_map.empty in
  List.iter
    (fun (t, p, m) ->
       let id = App_msg.id m in
       match App_msg.Id_map.find_opt id !seen with
       | None -> seen := App_msg.Id_map.add id (t, p) !seen
       | Some (t0, p0) ->
         violations :=
           str "distinct-broadcasts: id %a broadcast by %a at %d and again \
                by %a at %d (sequence number reused)"
             App_msg.pp_id id pp_proc p0 t0 pp_proc p t :: !violations)
    run.e_broadcasts;
  of_violations (List.rev !violations)

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

let etob_report run =
  { validity = check_validity run;
    no_creation = check_no_creation run;
    no_duplication = check_no_duplication run;
    agreement = check_agreement run;
    causal_order = check_causal_order run;
    distinct_broadcasts = check_distinct_broadcasts run;
    tau_stability = stability_time run;
    tau_total_order = total_order_time run }

let etob_base_ok r =
  r.validity.ok && r.no_creation.ok && r.no_duplication.ok && r.agreement.ok

(* The run satisfies the full (strong) TOB specification. *)
let is_strong_tob r = etob_base_ok r && r.tau_stability = 0 && r.tau_total_order = 0

let etob_convergence_time r = max r.tau_stability r.tau_total_order

(* Flatten a report into the list of violated properties, as the explorer
   consumes it.  [tau_bound] is the largest admissible convergence time for
   the run's adversity plan: 0 for a plan with no leader flapping (every
   adoption is a same-lineage promote from the stable leader, so strong
   stability/total-order must hold), or the plan's settle time plus slack
   otherwise.  [None] skips the tau check (eventual-only mode). *)
let etob_violations ?tau_bound r =
  let verdicts =
    [ ("validity", r.validity);
      ("no-creation", r.no_creation);
      ("no-duplication", r.no_duplication);
      ("agreement", r.agreement);
      ("causal-order", r.causal_order);
      ("distinct-broadcasts", r.distinct_broadcasts) ]
  in
  let base =
    (* Some checkers already lead their messages with their own name. *)
    let tag name msg =
      let prefix = name ^ ":" in
      if String.length msg >= String.length prefix
         && String.sub msg 0 (String.length prefix) = prefix
      then msg
      else Printf.sprintf "%s: %s" name msg
    in
    List.concat_map
      (fun (name, v) -> List.map (tag name) v.violations)
      verdicts
  in
  let tau =
    match tau_bound with
    | None -> []
    | Some bound ->
      let check name t =
        if t > bound then
          [ Printf.sprintf "%s: tau=%d exceeds bound %d" name t bound ]
        else []
      in
      check "tau-stability" r.tau_stability
      @ check "tau-total-order" r.tau_total_order
  in
  base @ tau

let pp_etob_report ppf r =
  Fmt.pf ppf
    "@[<v>validity: %a@,no-creation: %a@,no-duplication: %a@,agreement: %a@,\
     causal-order: %a@,distinct-broadcasts: %a@,\
     tau(stability)=%d tau(total-order)=%d@]"
    pp_verdict r.validity pp_verdict r.no_creation pp_verdict r.no_duplication
    pp_verdict r.agreement pp_verdict r.causal_order
    pp_verdict r.distinct_broadcasts r.tau_stability r.tau_total_order

(* The time by which every correct process has stably delivered m: the
   earliest t such that m is in d_p(t') for every correct p and t' >= t.
   None if some correct process never (stably) delivers m. *)
let stable_delivery_time run m =
  let per_proc p =
    let rec last_absent best = function
      | [] -> best
      | (t, seq) :: rest ->
        if List.exists (App_msg.equal m) seq then last_absent best rest
        else last_absent (Some t) rest
    in
    let rec first_present = function
      | [] -> None
      | (t, seq) :: rest ->
        if List.exists (App_msg.equal m) seq then Some t else first_present rest
    in
    match first_present run.e_snapshots.(p), last_absent None run.e_snapshots.(p) with
    | None, _ -> None
    | Some tp, None -> Some tp
    | Some tp, Some ta ->
      if ta < tp then Some tp
      else
        (* present, later absent: first presence AFTER the last absence. *)
        List.find_map
          (fun (t, seq) ->
             if t > ta && List.exists (App_msg.equal m) seq then Some t else None)
          run.e_snapshots.(p)
  in
  let correct = correct_procs run in
  let times = List.map per_proc correct in
  if List.exists (fun t -> t = None) times then None
  else Some (List.fold_left (fun acc t -> max acc (Option.get t)) 0 times)

(* ------------------------------------------------------------------ *)
(* Committed-prefix runs (Section 7 extension)                         *)
(* ------------------------------------------------------------------ *)

type commit_run = {
  m_pattern : Failures.pattern;
  m_series : (time * App_msg.t list) list array;  (* chronological per proc *)
}

let commit_run_of_trace pattern trace =
  let series = Array.make (Failures.n pattern) [] in
  List.iter
    (fun (t, p, o) ->
       match o with
       | Commit_prefix.Committed seq -> series.(p) <- (t, seq) :: series.(p)
       | _ -> ())
    (Trace.outputs trace);
  { m_pattern = pattern; m_series = Array.map List.rev series }

(* The defining property of the indication: a committed prefix is never
   rolled back — every announcement extends the previous one. *)
let check_commit_stability run =
  let violations = ref [] in
  Array.iteri
    (fun p entries ->
       let rec scan prev = function
         | [] -> ()
         | (t, seq) :: rest ->
           if not (App_msg.is_prefix prev seq) then
             violations :=
               str "commit-stability: commitment at %a revised at %d" pp_proc p t
               :: !violations;
           scan seq rest
       in
       scan [] entries)
    run.m_series;
  of_violations (List.rev !violations)

let final_committed run p =
  match List.rev run.m_series.(p) with [] -> [] | (_, seq) :: _ -> seq

(* Committed prefixes must be prefixes of what is eventually delivered. *)
let check_commit_consistent run etob =
  let violations = ref [] in
  List.iter
    (fun p ->
       let committed = final_committed run p in
       List.iter
         (fun q ->
            if not (App_msg.is_prefix committed (final_d etob q)) then
              violations :=
                str "commit-consistency: %a's committed prefix is not a prefix of \
                     final d_%a" pp_proc p pp_proc q :: !violations)
         (correct_procs etob))
    (Failures.correct run.m_pattern);
  of_violations (List.rev !violations)

(* The time by which every correct process knows m committed; None if some
   correct process never learns it. *)
let commit_time run m =
  let per_proc p =
    List.find_map
      (fun (t, seq) -> if List.exists (App_msg.equal m) seq then Some t else None)
      run.m_series.(p)
  in
  let times = List.map per_proc (Failures.correct run.m_pattern) in
  if List.exists (fun t -> t = None) times then None
  else Some (List.fold_left (fun acc t -> max acc (Option.get t)) 0 times)

let committed_count run p = List.length (final_committed run p)

(* ------------------------------------------------------------------ *)
(* EC runs                                                             *)
(* ------------------------------------------------------------------ *)

type ec_run = {
  c_pattern : Failures.pattern;
  c_horizon : time;
  c_proposals : (time * proc_id * int * Value.t) list;
  c_decisions : (time * proc_id * int * Value.t) list;
}

let ec_run_of_trace ?(layer = Ec_intf.default_layer) pattern trace =
  let proposals = ref [] and decisions = ref [] in
  List.iter
    (fun (t, p, o) ->
       match o with
       | Ec_intf.Proposed_ec { layer = l; instance; value } when l = layer ->
         proposals := (t, p, instance, value) :: !proposals
       | Ec_intf.Decide_ec { layer = l; instance; value } when l = layer ->
         decisions := (t, p, instance, value) :: !decisions
       | _ -> ())
    (Trace.outputs trace);
  { c_pattern = pattern;
    c_horizon = Trace.last_time trace;
    c_proposals = List.rev !proposals;
    c_decisions = List.rev !decisions }

(* EC-Integrity: no process responds twice to the same instance. *)
let check_ec_integrity run =
  let seen = Hashtbl.create 64 in
  let violations = ref [] in
  List.iter
    (fun (t, p, l, _) ->
       if Hashtbl.mem seen (p, l) then
         violations := str "ec-integrity: %a decided instance %d twice (at %d)"
             pp_proc p l t :: !violations
       else Hashtbl.add seen (p, l) ())
    run.c_decisions;
  of_violations (List.rev !violations)

(* EC-Validity: every decided value was proposed to the same instance. *)
let check_ec_validity run =
  of_violations
    (List.filter_map
       (fun (t, p, l, v) ->
          let proposed =
            List.exists (fun (_, _, l', v') -> l = l' && Value.equal v v')
              run.c_proposals
          in
          if proposed then None
          else Some (str "ec-validity: %a decided %a for instance %d at %d, never proposed"
                       pp_proc p Value.pp v l t))
       run.c_decisions)

(* EC-Termination (finite-run form): every correct process decided every
   instance in [1, instances]. *)
let check_ec_termination run ~instances =
  let violations = ref [] in
  List.iter
    (fun p ->
       let rec each l =
         if l <= instances then begin
           if not (List.exists (fun (_, p', l', _) -> p' = p && l' = l) run.c_decisions)
           then violations := str "ec-termination: %a never decided instance %d"
               pp_proc p l :: !violations;
           each (l + 1)
         end
       in
       each 1)
    (Failures.correct run.c_pattern);
  of_violations (List.rev !violations)

(* The measured EC-Agreement index: the smallest k such that all decisions
   for every instance >= k agree.  1 means agreement from the start. *)
let ec_agreement_index run =
  let disagreeing l =
    let values =
      List.filter_map (fun (_, _, l', v) -> if l = l' then Some v else None)
        run.c_decisions
    in
    match values with
    | [] -> false
    | v :: rest -> List.exists (fun v' -> not (Value.equal v v')) rest
  in
  let instances =
    List.sort_uniq Int.compare (List.map (fun (_, _, l, _) -> l) run.c_decisions)
  in
  List.fold_left (fun k l -> if disagreeing l then max k (l + 1) else k) 1 instances

let decided_instances run =
  List.sort_uniq Int.compare (List.map (fun (_, _, l, _) -> l) run.c_decisions)

type ec_report = {
  integrity : verdict;
  ec_validity : verdict;
  termination : verdict;
  agreement_index : int;
}

let ec_report run ~instances =
  { integrity = check_ec_integrity run;
    ec_validity = check_ec_validity run;
    termination = check_ec_termination run ~instances;
    agreement_index = ec_agreement_index run }

let ec_ok ?(agreement_by = max_int) r =
  r.integrity.ok && r.ec_validity.ok && r.termination.ok
  && r.agreement_index <= agreement_by

let pp_ec_report ppf r =
  Fmt.pf ppf "@[<v>integrity: %a@,validity: %a@,termination: %a@,agreement from k=%d@]"
    pp_verdict r.integrity pp_verdict r.ec_validity pp_verdict r.termination
    r.agreement_index

(* ------------------------------------------------------------------ *)
(* EIC runs (Appendix A)                                               *)
(* ------------------------------------------------------------------ *)

type eic_run = {
  i_pattern : Failures.pattern;
  i_proposals : (time * proc_id * int * Value.t) list;
  i_decisions : (time * proc_id * int * Value.t) list;  (* chronological *)
}

let eic_run_of_trace pattern trace =
  let proposals = ref [] and decisions = ref [] in
  List.iter
    (fun (t, p, o) ->
       match o with
       | Eic_intf.Proposed_eic { instance; value } ->
         proposals := (t, p, instance, value) :: !proposals
       | Eic_intf.Decide_eic { instance; value } ->
         decisions := (t, p, instance, value) :: !decisions
       | _ -> ())
    (Trace.outputs trace);
  { i_pattern = pattern;
    i_proposals = List.rev !proposals;
    i_decisions = List.rev !decisions }

(* The final (= last) response of p to instance l, if any. *)
let eic_final_response run p l =
  List.fold_left
    (fun acc (_, p', l', v) -> if p = p' && l = l' then Some v else acc)
    None run.i_decisions

(* The measured EIC-Integrity index: smallest k such that no process
   responds twice to any instance >= k. *)
let eic_integrity_index run =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (_, p, l, _) ->
       let c = Option.value ~default:0 (Hashtbl.find_opt counts (p, l)) in
       Hashtbl.replace counts (p, l) (c + 1))
    run.i_decisions;
  (* detlint: sorted — max over bindings is order-insensitive *)
  Hashtbl.fold (fun (_, l) c k -> if c > 1 then max k (l + 1) else k) counts 1

let eic_revocation_count run =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (_, p, l, _) ->
       let c = Option.value ~default:0 (Hashtbl.find_opt counts (p, l)) in
       Hashtbl.replace counts (p, l) (c + 1))
    run.i_decisions;
  (* detlint: sorted — sum over bindings is order-insensitive *)
  Hashtbl.fold (fun _ c acc -> acc + max 0 (c - 1)) counts 0

(* EIC-Agreement (finite-run form): the final responses of correct processes
   agree on every instance they have all responded to. *)
let check_eic_agreement run =
  let correct = Failures.correct run.i_pattern in
  let instances =
    List.sort_uniq Int.compare (List.map (fun (_, _, l, _) -> l) run.i_decisions)
  in
  let violations = ref [] in
  List.iter
    (fun l ->
       let finals = List.map (fun p -> eic_final_response run p l) correct in
       if List.for_all (fun v -> v <> None) finals then
         match finals with
         | Some v :: rest ->
           if List.exists (function Some v' -> not (Value.equal v v') | None -> false) rest
           then violations := str "eic-agreement: final responses differ for instance %d" l
               :: !violations
         | _ -> ())
    instances;
  of_violations (List.rev !violations)

(* EIC-Validity: every response value was proposed to the same instance. *)
let check_eic_validity run =
  of_violations
    (List.filter_map
       (fun (t, p, l, v) ->
          let proposed =
            List.exists (fun (_, _, l', v') -> l = l' && Value.equal v v')
              run.i_proposals
          in
          if proposed then None
          else Some (str "eic-validity: %a responded %a for instance %d at %d, never proposed"
                       pp_proc p Value.pp v l t))
       run.i_decisions)

(* EIC-Termination: every correct process responded at least once to every
   instance in [1, instances]. *)
let check_eic_termination run ~instances =
  let violations = ref [] in
  List.iter
    (fun p ->
       let rec each l =
         if l <= instances then begin
           if eic_final_response run p l = None then
             violations := str "eic-termination: %a never responded to instance %d"
                 pp_proc p l :: !violations;
           each (l + 1)
         end
       in
       each 1)
    (Failures.correct run.i_pattern);
  of_violations (List.rev !violations)
