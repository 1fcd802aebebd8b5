(* The list-based ETOB checkers, kept as the reference oracle for the
   position-table and sweep-line checkers of [Ec_core.Properties].

   This is the definition read literally: d_p(t) rescanned from the first
   revision, every pair of correct processes compared at every revision
   time, [List.assoc] position lookups.  It costs O(T * n^2 * L^3) for T
   revision times, n processes and sequences of length L, so it only runs
   on the small runs of the fast-vs-reference differential in test_core.
   Do not optimise it: its value is that it is obviously the paper's
   definition. *)

open Simulator
open Simulator.Types
open Ec_core

type verdict = Properties.verdict = { ok : bool; violations : string list }

let of_violations = Properties.of_violations

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
  { e_pattern = pattern;
    e_horizon = Trace.last_time trace;
    e_broadcasts = List.rev !broadcasts;
    e_snapshots = Array.map List.rev snapshots }

let final_d run p =
  match run.e_snapshots.(p) with [] -> [] | l -> snd (List.nth l (List.length l - 1))

(* d_p(t): the last revision at or before t (initially the empty sequence). *)
let d_at run p t =
  let rec scan best = function
    | [] -> best
    | (t', seq) :: rest -> if t' <= t then scan seq rest else best
  in
  scan [] run.e_snapshots.(p)

let correct_procs run = Failures.correct run.e_pattern

let broadcast_time run m =
  List.find_map
    (fun (t, _, m') -> if App_msg.equal m m' then Some t else None)
    run.e_broadcasts

let str fmt = Format.asprintf fmt

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
  let violations = ref [] in
  List.iter
    (fun p ->
       List.iter
         (fun m ->
            List.iter
              (fun q ->
                 if not (List.exists (App_msg.equal m) (final_d run q)) then
                   violations :=
                     str "agreement: %a in final d_%a but not in final d_%a"
                       App_msg.pp m pp_proc p pp_proc q :: !violations)
              correct)
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

(* Relative order of the common messages of two sequences agrees. *)
let orders_agree seq_a seq_b =
  let index seq = List.mapi (fun i m -> (App_msg.id m, i)) seq in
  let ia = index seq_a and ib = index seq_b in
  let common = List.filter (fun (id, _) -> List.mem_assoc id ib) ia in
  let rec pairs = function
    | [] -> true
    | (id1, i1) :: rest ->
      List.for_all
        (fun (id2, i2) ->
           let j1 = List.assoc id1 ib and j2 = List.assoc id2 ib in
           Int.compare i1 i2 = Int.compare j1 j2)
        rest
      && pairs rest
  in
  pairs common

(* The measured ETOB-Total-order time: the earliest tau such that at every
   event time >= tau, all pairs of correct processes order their common
   messages consistently. *)
let total_order_time run =
  let times =
    List.sort_uniq Int.compare
      (Array.to_list run.e_snapshots |> List.concat_map (List.map fst))
  in
  let correct = correct_procs run in
  let consistent_at t =
    let rec check = function
      | [] -> true
      | p :: rest ->
        List.for_all (fun q -> orders_agree (d_at run p t) (d_at run q t)) rest
        && check rest
    in
    check correct
  in
  List.fold_left (fun tau t -> if consistent_at t then tau else max tau (t + 1)) 0 times

(* TOB-Causal-Order: in every d_i(t), every dependency of a message that is
   present appears earlier.  The paper requires this at ALL times for
   Algorithm 5 — no tau. *)
let check_causal_order run =
  let violations = ref [] in
  Array.iteri
    (fun p revs ->
       List.iter
         (fun (t, seq) ->
            let indexed = List.mapi (fun i m -> (App_msg.id m, i)) seq in
            List.iteri
              (fun i m ->
                 List.iter
                   (fun dep ->
                      match List.assoc_opt dep indexed with
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

type etob_report = Properties.etob_report = {
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
