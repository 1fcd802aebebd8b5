(* Tests for the simulation substrate: priority queue, RNG, failure
   patterns, network models, trace recording and the engine's execution
   semantics (the paper's Section 2 model). *)

open Simulator
open Simulator.Types

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)
(* ------------------------------------------------------------------ *)

let of_items items =
  let q = Pqueue.create () in
  List.iter (fun (p, v) -> Pqueue.insert q ~prio:p v) items;
  q

let test_pqueue_orders () =
  let q = of_items [ (3, "c"); (1, "a"); (2, "b") ] in
  Alcotest.(check (list (pair int string))) "pop order"
    [ (1, "a"); (2, "b"); (3, "c") ] (Pqueue.to_sorted_list q)

let test_pqueue_fifo_among_ties () =
  let q = of_items [ (7, "first"); (7, "second"); (7, "third") ] in
  Alcotest.(check (list (pair int string))) "stable"
    [ (7, "first"); (7, "second"); (7, "third") ] (Pqueue.to_sorted_list q)

let test_pqueue_size_and_peek () =
  let q = of_items [ (5, "x"); (2, "y") ] in
  Alcotest.(check int) "size" 2 (Pqueue.size q);
  Alcotest.(check (option int)) "peek" (Some 2) (Pqueue.peek_prio q);
  Alcotest.(check bool) "not empty" false (Pqueue.is_empty q);
  Alcotest.(check (list (pair int string))) "to_sorted_list is non-destructive"
    (Pqueue.to_sorted_list q) (Pqueue.to_sorted_list q);
  Alcotest.(check int) "size preserved" 2 (Pqueue.size q)

(* A random interleaving of inserts and pops, described by a list of
   (prio, pop_now) commands: insert prio, then pop whenever pop_now. *)
let interleave_gen = QCheck.(list (pair (int_bound 50) bool))

(* Drive the mutable heap through an interleaving; values carry the
   insertion sequence number so stability is observable. *)
let run_mutable cmds =
  let q = Pqueue.create () in
  let pops = ref [] in
  List.iteri
    (fun seq (prio, pop_now) ->
       Pqueue.insert q ~prio seq;
       if pop_now then
         match Pqueue.pop q with
         | Some (p, s) -> pops := (p, s) :: !pops
         | None -> ())
    cmds;
  let rec drain acc =
    match Pqueue.pop q with None -> List.rev acc | Some pv -> drain (pv :: acc)
  in
  List.rev !pops @ drain []

let run_persistent cmds =
  let q = ref Pqueue_persistent.empty in
  let pops = ref [] in
  List.iteri
    (fun seq (prio, pop_now) ->
       q := Pqueue_persistent.insert !q ~prio seq;
       if pop_now then
         match Pqueue_persistent.pop !q with
         | Some ((p, s), q') -> q := q'; pops := (p, s) :: !pops
         | None -> ())
    cmds;
  List.rev !pops @ Pqueue_persistent.to_sorted_list !q

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue: pop order is a stable sort" ~count:300
    QCheck.(list (pair (int_bound 50) small_int))
    (fun items ->
       let popped = Pqueue.to_sorted_list (of_items items) in
       let expected = List.stable_sort (fun (a, _) (b, _) -> compare a b) items in
       popped = expected)

(* Differential test: on random insert/pop interleavings, the mutable
   binary heap and the retained persistent leftist heap pop exactly the
   same (prio, seq) sequence — the heap swap is order-preserving. *)
let prop_pqueue_differential =
  QCheck.Test.make ~name:"pqueue: binary heap = persistent heap" ~count:500
    interleave_gen
    (fun cmds -> run_mutable cmds = run_persistent cmds)

(* Model test exercised against BOTH implementations: each matches a
   stable sorted-list model of the same interleaving.  The model list stays
   sorted by (prio, seq); an insert walks past every smaller-or-equal
   entry, O(k) instead of a re-sort. *)
let rec insert_sorted x = function
  | y :: rest when compare y x <= 0 -> y :: insert_sorted x rest
  | l -> x :: l

let sorted_model cmds =
  let pops = ref [] in
  let xs = ref [] in
  List.iteri
    (fun seq (prio, pop_now) ->
       xs := insert_sorted (prio, seq) !xs;
       if pop_now then
         match !xs with
         | [] -> ()
         | hd :: rest -> pops := hd :: !pops; xs := rest)
    cmds;
  List.rev !pops @ !xs

let prop_pqueue_vs_model =
  QCheck.Test.make ~name:"pqueue: both heaps match the sorted-list model"
    ~count:500 interleave_gen
    (fun cmds ->
       let model = sorted_model cmds in
       run_mutable cmds = model && run_persistent cmds = model)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 99 and b = Rng.create 99 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same stream" xs ys

let test_rng_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 500 do
    let x = Rng.in_range rng ~min:3 ~max:9 in
    Alcotest.(check bool) "in range" true (3 <= x && x <= 9)
  done

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Rng.int b 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 11 in
  let xs = List.init 30 (fun i -> i) in
  let ys = Rng.shuffle rng xs in
  Alcotest.(check (list int)) "same multiset" xs (List.sort compare ys)

let test_rng_rejects_bad_bound () =
  let rng = Rng.create 0 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

(* ------------------------------------------------------------------ *)
(* Failures                                                            *)
(* ------------------------------------------------------------------ *)

let test_failures_basics () =
  let f = Failures.of_crashes ~n:5 [ (1, 10); (3, 20) ] in
  Alcotest.(check (list int)) "correct" [ 0; 2; 4 ] (Failures.correct f);
  Alcotest.(check (list int)) "faulty" [ 1; 3 ] (Failures.faulty f);
  Alcotest.(check bool) "alive before crash" true (Failures.is_alive f 1 9);
  Alcotest.(check bool) "dead at crash" false (Failures.is_alive f 1 10);
  Alcotest.(check bool) "majority" true (Failures.has_correct_majority f);
  Alcotest.(check (option int)) "min correct" (Some 0) (Failures.min_correct f)

let test_failures_crashed_by_monotone () =
  let f = Failures.of_crashes ~n:4 [ (0, 5); (2, 15) ] in
  Alcotest.(check (list int)) "F(4)" [] (Failures.crashed_by f 4);
  Alcotest.(check (list int)) "F(10)" [ 0 ] (Failures.crashed_by f 10);
  Alcotest.(check (list int)) "F(20)" [ 0; 2 ] (Failures.crashed_by f 20)

let test_failures_double_crash_keeps_earliest () =
  let f = Failures.crash_at (Failures.of_crashes ~n:3 [ (1, 5) ]) 1 30 in
  Alcotest.(check (option int)) "earliest kept" (Some 5) (Failures.crash_time f 1)

let test_environments () =
  let minority = Failures.of_crashes ~n:5 [ (0, 1); (1, 1); (2, 1) ] in
  Alcotest.(check bool) "any admits" true
    (Failures.admits Failures.any_environment minority);
  Alcotest.(check bool) "majority rejects" false
    (Failures.admits Failures.majority_environment minority);
  Alcotest.(check bool) "3-resilient admits" true
    (Failures.admits (Failures.t_resilient 3) minority);
  Alcotest.(check bool) "2-resilient rejects" false
    (Failures.admits (Failures.t_resilient 2) minority)

let test_failures_recovery_windows () =
  let f =
    Failures.crash_recover_at (Failures.none ~n:3) 1 ~at:10 ~recover_at:20
  in
  Alcotest.(check (list (pair int int))) "window" [ (10, 20) ]
    (Failures.downtimes f 1);
  Alcotest.(check bool) "has recovery" true (Failures.has_recovery f);
  Alcotest.(check bool) "windows do not make a process faulty" false
    (Failures.is_faulty f 1);
  Alcotest.(check bool) "still correct" true (Failures.is_correct f 1);
  Alcotest.(check bool) "up before" true (Failures.is_alive f 1 9);
  Alcotest.(check bool) "down at crash" false (Failures.is_alive f 1 10);
  Alcotest.(check bool) "down until recovery" false (Failures.is_alive f 1 19);
  Alcotest.(check bool) "up at recovery" true (Failures.is_alive f 1 20);
  Alcotest.(check bool) "status Down mid-window" true
    (Failures.status f 1 15 = Failures.Down);
  Alcotest.(check bool) "status Up after" true
    (Failures.status f 1 20 = Failures.Up);
  Alcotest.(check (list int)) "F(15) counts the down process" [ 1 ]
    (Failures.crashed_by f 15)

let test_failures_windows_merge () =
  let f = Failures.none ~n:2 in
  let f = Failures.crash_recover_at f 0 ~at:10 ~recover_at:20 in
  let f = Failures.crash_recover_at f 0 ~at:15 ~recover_at:25 in
  let f = Failures.crash_recover_at f 0 ~at:25 ~recover_at:30 in
  Alcotest.(check (list (pair int int))) "overlap and touch fuse"
    [ (10, 30) ] (Failures.downtimes f 0);
  let f = Failures.crash_recover_at f 0 ~at:40 ~recover_at:45 in
  Alcotest.(check (list (pair int int))) "disjoint windows kept ascending"
    [ (10, 30); (40, 45) ] (Failures.downtimes f 0);
  Alcotest.check_raises "empty window rejected"
    (Invalid_argument "Failures.crash_recover_at: recovery must follow the crash")
    (fun () -> ignore (Failures.crash_recover_at f 0 ~at:5 ~recover_at:5))

let test_failures_recovery_events_sorted () =
  let f = Failures.none ~n:3 in
  let f = Failures.crash_recover_at f 2 ~at:5 ~recover_at:9 in
  let f = Failures.crash_recover_at f 0 ~at:12 ~recover_at:30 in
  let f = Failures.crash_recover_at f 2 ~at:14 ~recover_at:18 in
  Alcotest.(check (list (triple int int int))) "schedule by crash time"
    [ (2, 5, 9); (0, 12, 30); (2, 14, 18) ]
    (Failures.recovery_events f)

(* A permanent crash inside a downtime window wins: the process never
   restarts (and is faulty). *)
let test_failures_permanent_crash_wins () =
  let f =
    Failures.crash_recover_at (Failures.none ~n:2) 1 ~at:10 ~recover_at:20
  in
  let f = Failures.crash_at f 1 15 in
  Alcotest.(check bool) "faulty" true (Failures.is_faulty f 1);
  Alcotest.(check bool) "Down before the permanent crash" true
    (Failures.status f 1 12 = Failures.Down);
  Alcotest.(check bool) "Crashed from then on" true
    (Failures.status f 1 25 = Failures.Crashed);
  Alcotest.(check bool) "never back up" false (Failures.is_alive f 1 50)

let prop_random_pattern_has_correct =
  QCheck.Test.make ~name:"failures: random pattern keeps a correct process"
    ~count:200 QCheck.(pair small_int small_int)
    (fun (seed, extra) ->
       let n = 2 + (extra mod 6) in
       let rng = Rng.create seed in
       let f = Failures.random ~rng ~n ~max_faulty:(n - 1) ~horizon:50 in
       Failures.correct_count f >= 1)

(* Regression for the documented contract: [random ~max_faulty] is always
   admitted by [t_resilient max_faulty] (not merely by any_environment),
   and every crash time stays within the horizon. *)
let prop_random_pattern_t_resilient =
  QCheck.Test.make ~name:"failures: random pattern admitted by t_resilient"
    ~count:300 QCheck.(triple small_int (int_bound 5) (int_bound 80))
    (fun (seed, extra, horizon) ->
       let n = 2 + extra in
       let rng = Rng.create seed in
       let max_faulty = Rng.int rng n in
       let f = Failures.random ~rng ~n ~max_faulty ~horizon in
       Failures.admits (Failures.t_resilient max_faulty) f
       && List.for_all
            (fun p ->
               match Failures.crash_time f p with
               | None -> true
               | Some t -> 0 <= t && t <= horizon)
            (List.init n Fun.id))

(* [random_admitted] respects a stricter environment than the t-resilience
   its max_faulty would allow. *)
let prop_random_admitted_env =
  QCheck.Test.make ~name:"failures: random_admitted respects the environment"
    ~count:200 QCheck.small_int
    (fun seed ->
       let rng = Rng.create seed in
       let f =
         Failures.random_admitted ~rng ~env:Failures.majority_environment
           ~n:5 ~max_faulty:4 ~horizon:60 ()
       in
       Failures.admits Failures.majority_environment f)

(* ------------------------------------------------------------------ *)
(* Net                                                                 *)
(* ------------------------------------------------------------------ *)

let rng = Rng.create 3

let test_net_constant () =
  Alcotest.(check int) "constant" 4
    (Net.delay_of (Net.instantiate (Net.constant 4)) ~src:0 ~dst:1 ~now:10 ~rng)

let test_net_uniform_bounds () =
  let d = Net.instantiate (Net.uniform ~min:2 ~max:6) in
  for now = 0 to 200 do
    let x = Net.delay_of d ~src:0 ~dst:1 ~now ~rng in
    Alcotest.(check bool) "bounds" true (2 <= x && x <= 6)
  done

let test_net_partition_delays_cross_block () =
  let spec = { Net.blocks = [ [ 0; 1 ]; [ 2 ] ]; from_time = 10; until_time = 30 } in
  let d = Net.instantiate (Net.partitioned spec ~base:(Net.constant 1)) in
  Alcotest.(check int) "same block" 1 (Net.delay_of d ~src:0 ~dst:1 ~now:15 ~rng);
  let cross = Net.delay_of d ~src:0 ~dst:2 ~now:15 ~rng in
  Alcotest.(check bool) "cross delayed past heal" true (15 + cross >= 30);
  Alcotest.(check int) "before" 1 (Net.delay_of d ~src:0 ~dst:2 ~now:5 ~rng);
  Alcotest.(check int) "after" 1 (Net.delay_of d ~src:0 ~dst:2 ~now:30 ~rng)

let test_net_slow_period () =
  let d =
    Net.instantiate
      (Net.slow_period ~from_time:10 ~until_time:20 ~factor:5 ~base:(Net.constant 2))
  in
  Alcotest.(check int) "inside" 10 (Net.delay_of d ~src:0 ~dst:1 ~now:12 ~rng);
  Alcotest.(check int) "outside" 2 (Net.delay_of d ~src:0 ~dst:1 ~now:25 ~rng)

let test_net_fifo_no_overtaking () =
  let d = Net.instantiate (Net.fifo ~base:(Net.uniform ~min:1 ~max:9)) in
  let rng = Rng.create 4 in
  let rec go now last_arrival remaining =
    if remaining > 0 then begin
      let delay = Net.delay_of d ~src:0 ~dst:1 ~now ~rng in
      let arrival = now + delay in
      Alcotest.(check bool) "no overtaking" true (arrival > last_arrival);
      go (now + 1) arrival (remaining - 1)
    end
  in
  go 0 (-1) 200

let test_net_fifo_per_link () =
  (* Ordering is per ordered pair: the reverse direction is independent. *)
  let d = Net.instantiate (Net.fifo ~base:(Net.constant 5)) in
  let rng = Rng.create 4 in
  ignore (Net.delay_of d ~src:0 ~dst:1 ~now:0 ~rng);
  (* A later message on the same link gets pushed after the first... *)
  let fwd = Net.delay_of d ~src:0 ~dst:1 ~now:4 ~rng in
  Alcotest.(check bool) "same link clamped" true (4 + fwd > 5);
  (* ...but the reverse link is unaffected. *)
  Alcotest.(check int) "reverse link free" 5 (Net.delay_of d ~src:1 ~dst:0 ~now:4 ~rng)

let test_net_fifo_instances_independent () =
  (* Each instantiation gets its own clamp table. *)
  let model = Net.fifo ~base:(Net.constant 5) in
  let rng = Rng.create 4 in
  let d1 = Net.instantiate model in
  ignore (Net.delay_of d1 ~src:0 ~dst:1 ~now:0 ~rng);
  let d2 = Net.instantiate model in
  Alcotest.(check int) "fresh instance unclamped" 5
    (Net.delay_of d2 ~src:0 ~dst:1 ~now:4 ~rng)

let test_net_local_fast () =
  let d = Net.instantiate (Net.local_fast ~remote:(Net.constant 7)) in
  Alcotest.(check int) "self" 1 (Net.delay_of d ~src:2 ~dst:2 ~now:0 ~rng);
  Alcotest.(check int) "remote" 7 (Net.delay_of d ~src:2 ~dst:0 ~now:0 ~rng)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

type Msg.payload += Ping of int
type Io.output += Got of int * proc_id

(* Every process pings everyone once; receivers record what they got. *)
let ping_node (ctx : Engine.ctx) =
  let fired = ref false in
  { Engine.on_message =
      (fun ~src payload ->
         match payload with
         | Ping k -> ctx.Engine.output (Got (k, src))
         | _ -> ());
    on_timer =
      (fun () ->
         if not !fired then begin
           fired := true;
           ctx.Engine.broadcast (Ping ctx.Engine.self)
         end);
    on_input = (fun _ -> ()) }

let got_events trace =
  List.filter_map
    (fun (t, p, o) -> match o with Got (k, src) -> Some (t, p, k, src) | _ -> None)
    (Trace.outputs trace)

let test_engine_delivers_everything () =
  let config = Engine.default_config ~n:3 ~deadline:30 in
  let trace = Engine.run config ~make_node:ping_node ~inputs:[] in
  (* 3 broadcasts x 3 receivers. *)
  Alcotest.(check int) "9 deliveries" 9 (List.length (got_events trace))

let test_engine_deterministic () =
  let config = { (Engine.default_config ~n:4 ~deadline:50) with
                 delay = Net.uniform ~min:1 ~max:5; seed = 123 } in
  let t1 = Engine.run config ~make_node:ping_node ~inputs:[] in
  let t2 = Engine.run config ~make_node:ping_node ~inputs:[] in
  Alcotest.(check int) "same events" (List.length (got_events t1))
    (List.length (got_events t2));
  Alcotest.(check bool) "identical" true (got_events t1 = got_events t2)

let test_engine_seed_changes_run () =
  let mk seed = { (Engine.default_config ~n:4 ~deadline:50) with
                  delay = Net.uniform ~min:1 ~max:9; seed } in
  let t1 = Engine.run (mk 1) ~make_node:ping_node ~inputs:[] in
  let t2 = Engine.run (mk 2) ~make_node:ping_node ~inputs:[] in
  Alcotest.(check bool) "timings differ" true (got_events t1 <> got_events t2)

let test_engine_crashed_take_no_steps () =
  let pattern = Failures.of_crashes ~n:3 [ (2, 1) ] in
  let config = { (Engine.default_config ~n:3 ~deadline:30) with pattern } in
  let trace = Engine.run config ~make_node:ping_node ~inputs:[] in
  (* p2 crashes at t=1, before its first timer: it never pings, and pings
     addressed to it are dropped: 2 broadcasts x 2 alive receivers. *)
  let events = got_events trace in
  Alcotest.(check int) "4 deliveries" 4 (List.length events);
  List.iter
    (fun (_, p, k, _) ->
       Alcotest.(check bool) "no step by crashed" true (p <> 2 && k <> 2))
    events;
  Alcotest.(check bool) "drops counted" true (Trace.dropped trace > 0)

let test_engine_message_to_crashed_dropped_at_delivery () =
  (* p1 crashes at t=3; a ping sent at t=1 with delay 5 must be dropped. *)
  let pattern = Failures.of_crashes ~n:2 [ (1, 3) ] in
  let config = { (Engine.default_config ~n:2 ~deadline:30) with
                 pattern; delay = Net.constant 5 } in
  let trace = Engine.run config ~make_node:ping_node ~inputs:[] in
  List.iter
    (fun (_, p, _, _) -> Alcotest.(check int) "only p0 delivers" 0 p)
    (got_events trace)

let test_engine_recovery_restarts_node () =
  let pattern =
    Failures.crash_recover_at (Failures.none ~n:3) 2 ~at:1 ~recover_at:10
  in
  let config = { (Engine.default_config ~n:3 ~deadline:30) with pattern } in
  let trace = Engine.run config ~make_node:ping_node ~inputs:[] in
  let events = got_events trace in
  (* p0/p1 ping while p2 is down (deliveries to p2 are dropped: 2 x 2);
     the restarted p2 gets fresh volatile state — [fired] is false again —
     so it pings after recovery, reaching all three.  2x2 + 3 = 7. *)
  Alcotest.(check int) "7 deliveries" 7 (List.length events);
  List.iter
    (fun (t, p, k, _) ->
       if p = 2 || k = 2 then
         Alcotest.(check bool) "p2 activity only after recovery" true (t >= 10))
    events;
  Alcotest.(check bool) "restarted p2 pinged" true
    (List.exists (fun (_, _, k, _) -> k = 2) events);
  Alcotest.(check bool) "deliveries to the down p2 dropped" true
    (Trace.dropped trace >= 2)

(* run_with hands back the latest incarnation's handle. *)
let test_engine_run_with_latest_incarnation () =
  let pattern =
    Failures.crash_recover_at (Failures.none ~n:3) 1 ~at:5 ~recover_at:12
  in
  let config = { (Engine.default_config ~n:3 ~deadline:30) with pattern } in
  let incarnations = Array.make 3 0 in
  let make_node (ctx : Engine.ctx) =
    incarnations.(ctx.Engine.self) <- incarnations.(ctx.Engine.self) + 1;
    (Engine.idle_node, incarnations.(ctx.Engine.self))
  in
  let _, handles = Engine.run_with config ~make_node ~inputs:[] in
  Alcotest.(check (array int)) "restarted slot holds the second incarnation"
    [| 1; 2; 1 |] handles

let test_engine_crash_recover_marks () =
  let marks = ref [] in
  let sink =
    { Sink.null with
      Sink.on_crash = (fun ~at ~proc -> marks := ("crash", at, proc) :: !marks);
      on_recover = (fun ~at ~proc -> marks := ("recover", at, proc) :: !marks)
    }
  in
  let pattern =
    Failures.crash_recover_at (Failures.none ~n:2) 1 ~at:5 ~recover_at:12
  in
  let config =
    { (Engine.default_config ~n:2 ~deadline:30) with pattern; sink = Some sink }
  in
  ignore (Engine.run config ~make_node:ping_node ~inputs:[]);
  Alcotest.(check (list (triple string int int))) "both transitions reported"
    [ ("crash", 5, 1); ("recover", 12, 1) ]
    (List.rev !marks)

let test_engine_timer_cadence () =
  let ticks = ref [] in
  let make_node (ctx : Engine.ctx) =
    { Engine.on_message = (fun ~src:_ _ -> ());
      on_timer =
        (fun () -> if ctx.Engine.self = 0 then ticks := ctx.Engine.now () :: !ticks);
      on_input = (fun _ -> ()) }
  in
  let config = { (Engine.default_config ~n:2 ~deadline:20) with timer_period = 5 } in
  ignore (Engine.run config ~make_node ~inputs:[]);
  Alcotest.(check (list int)) "period 5 from stagger 1" [ 1; 6; 11; 16 ]
    (List.rev !ticks)

let test_engine_inputs_delivered_in_time () =
  let seen = ref [] in
  let make_node (ctx : Engine.ctx) =
    { Engine.on_message = (fun ~src:_ _ -> ());
      on_timer = (fun () -> ());
      on_input = (fun i ->
          match i with
          | Io.String_input s -> seen := (ctx.Engine.now (), ctx.Engine.self, s) :: !seen
          | _ -> ()) }
  in
  let inputs = [ (4, 1, Io.String_input "a"); (9, 0, Io.String_input "b") ] in
  let config = Engine.default_config ~n:2 ~deadline:20 in
  let trace = Engine.run config ~make_node ~inputs in
  Alcotest.(check (list (triple int int string))) "inputs seen"
    [ (4, 1, "a"); (9, 0, "b") ] (List.rev !seen);
  Alcotest.(check int) "inputs recorded in trace" 2 (List.length (Trace.inputs trace))

let test_engine_inputs_to_crashed_are_dropped () =
  let seen = ref 0 in
  let pattern = Failures.of_crashes ~n:2 [ (1, 5) ] in
  let make_node (_ : Engine.ctx) =
    { Engine.idle_node with on_input = (fun _ -> incr seen) }
  in
  let config = { (Engine.default_config ~n:2 ~deadline:30) with pattern } in
  let inputs =
    [ (3, 1, Io.String_input "before-crash"); (10, 1, Io.String_input "after-crash");
      (10, 0, Io.String_input "alive") ]
  in
  let trace = Engine.run config ~make_node ~inputs in
  Alcotest.(check int) "two inputs processed" 2 !seen;
  (* Only processed inputs enter the input history. *)
  Alcotest.(check int) "two inputs recorded" 2 (List.length (Trace.inputs trace))

let test_engine_combine_both_components_see_events () =
  let a_count = ref 0 and b_count = ref 0 in
  let make_node (ctx : Engine.ctx) =
    let base = ping_node ctx in
    let counter_a =
      { Engine.idle_node with on_message = (fun ~src:_ _ -> incr a_count) }
    in
    let counter_b =
      { Engine.idle_node with on_message = (fun ~src:_ _ -> incr b_count) }
    in
    Engine.stack [ base; counter_a; counter_b ]
  in
  let config = Engine.default_config ~n:2 ~deadline:20 in
  ignore (Engine.run config ~make_node ~inputs:[]);
  Alcotest.(check bool) "a saw messages" true (!a_count > 0);
  Alcotest.(check int) "same view" !a_count !b_count

let test_engine_deadline_truncates () =
  let config = { (Engine.default_config ~n:2 ~deadline:10) with timer_period = 3 } in
  let trace = Engine.run config ~make_node:ping_node ~inputs:[] in
  Alcotest.(check bool) "no event after deadline" true (Trace.last_time trace <= 10)

let test_engine_rejects_bad_config () =
  (* n = 1 is rejected at pattern construction already. *)
  Alcotest.check_raises "n too small" (Invalid_argument "Failures.none: need n >= 2")
    (fun () -> ignore (Engine.default_config ~n:1 ~deadline:10));
  let config = { (Engine.default_config ~n:2 ~deadline:10) with timer_period = 0 } in
  Alcotest.check_raises "bad period"
    (Invalid_argument "Engine.run: timer_period must be >= 1")
    (fun () -> ignore (Engine.run config ~make_node:ping_node ~inputs:[]))

(* Regression: a stateful delay model (fifo) reused across consecutive
   runs must behave as if freshly created each time — the per-link clamp
   table used to leak from one run into the next. *)
let test_engine_fifo_model_fresh_per_run () =
  let config = { (Engine.default_config ~n:3 ~deadline:60) with
                 delay = Net.fifo ~base:(Net.uniform ~min:1 ~max:6); seed = 7 } in
  let show t = Format.asprintf "%a" Trace.pp t in
  let t1 = Engine.run config ~make_node:ping_node ~inputs:[] in
  let t2 = Engine.run config ~make_node:ping_node ~inputs:[] in
  Alcotest.(check string) "identical traces from one fifo value" (show t1) (show t2)

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

(* A chatty workload for sink tests: every timer broadcasts, every
   delivery produces an output entry. *)
let chatty_node (ctx : Engine.ctx) =
  { Engine.on_message =
      (fun ~src payload ->
         match payload with Ping k -> ctx.Engine.output (Got (k, src)) | _ -> ());
    on_timer = (fun () -> ctx.Engine.broadcast (Ping ctx.Engine.self));
    on_input = (fun _ -> ()) }

let test_sink_counters_matches_recorder () =
  let config = { (Engine.default_config ~n:3 ~deadline:50) with
                 pattern = Failures.of_crashes ~n:3 [ (2, 25) ] } in
  let trace = Engine.run config ~make_node:chatty_node ~inputs:[] in
  let c = Sink.counters ~n:3 in
  let config_c = { config with Engine.sink = Some (Sink.counters_sink c) } in
  let empty_trace = Engine.run config_c ~make_node:chatty_node ~inputs:[] in
  Alcotest.(check int) "sent" (Trace.sent trace) (Sink.sent c);
  Alcotest.(check int) "delivered" (Trace.delivered trace) (Sink.delivered c);
  Alcotest.(check int) "dropped" (Trace.dropped trace) (Sink.dropped c);
  Alcotest.(check int) "steps" (Trace.steps trace) (Sink.steps c);
  Alcotest.(check int) "outputs" (List.length (Trace.outputs trace)) (Sink.outputs c);
  Alcotest.(check int) "custom sink leaves the returned trace empty" 0
    (List.length (Trace.entries empty_trace));
  (* Unit delays: every recorded latency is exactly 1 tick. *)
  let lats = Sink.all_latencies c in
  Alcotest.(check int) "one latency per delivery" (Sink.delivered c)
    (Array.length lats);
  Array.iter (fun l -> Alcotest.(check int) "unit latency" 1 l) lats;
  match Sink.latency_summary c 0 with
  | None -> Alcotest.fail "p0 delivered nothing"
  | Some s ->
    Alcotest.(check int) "p50" 1 s.Sink.p50;
    Alcotest.(check int) "p95" 1 s.Sink.p95;
    Alcotest.(check int) "p99" 1 s.Sink.p99;
    Alcotest.(check int) "p999" 1 s.Sink.p999;
    Alcotest.(check int) "max" 1 s.Sink.max

(* Nearest-rank quantiles are pinned exactly: for a sample of size [len]
   the q-permille quantile is the value at 1-based rank
   ceil(q*len/1000), so every quantile is a member of the sample and no
   float rounding can move the p999 tail. *)
let test_sink_nearest_rank_exact () =
  let sorted = Array.init 100 (fun i -> (i + 1) * 10) in  (* 10,20,...,1000 *)
  let q permille = Sink.nearest_rank sorted ~permille in
  Alcotest.(check int) "p50 of 1..100*10" 500 (q 500);
  Alcotest.(check int) "p95" 950 (q 950);
  Alcotest.(check int) "p99" 990 (q 990);
  Alcotest.(check int) "p999 rounds up to max" 1000 (q 999);
  Alcotest.(check int) "p1000 is max" 1000 (q 1000);
  Alcotest.(check int) "p0 clamps to min" 10 (q 0);
  (* len = 3: ranks are ceil(1.5)=2, ceil(2.85)=3, ceil(2.97)=3, ceil(2.997)=3 *)
  let three = [| 7; 11; 42 |] in
  Alcotest.(check int) "p50 of 3" 11 (Sink.nearest_rank three ~permille:500);
  Alcotest.(check int) "p95 of 3" 42 (Sink.nearest_rank three ~permille:950);
  Alcotest.(check int) "p999 of 3" 42 (Sink.nearest_rank three ~permille:999);
  (* len = 1: everything is the single sample. *)
  Alcotest.(check int) "singleton p999" 5 (Sink.nearest_rank [| 5 |] ~permille:999);
  (* summarize sorts internally and agrees with nearest_rank on the
     sorted sample, whatever the input order. *)
  let shuffled = [| 42; 7; 11 |] in
  (match Sink.summarize shuffled with
   | None -> Alcotest.fail "non-empty sample"
   | Some s ->
     Alcotest.(check int) "summarize count" 3 s.Sink.count;
     Alcotest.(check int) "summarize p50" 11 s.Sink.p50;
     Alcotest.(check int) "summarize p99" 42 s.Sink.p99;
     Alcotest.(check int) "summarize p999" 42 s.Sink.p999;
     Alcotest.(check int) "summarize max" 42 s.Sink.max);
  Alcotest.(check (option reject)) "empty sample summarizes to None" None
    (Sink.summarize [||]);
  (* A long-tailed sample where p99 and p999 genuinely differ: 999 unit
     latencies and one straggler; rank ceil(0.99*1000)=990 -> 1,
     ceil(0.999*1000)=999 -> 1, ceil(1.0*1000)=1000 -> straggler. *)
  let tail = Array.make 1000 1 in
  tail.(999) <- 500;
  (match Sink.summarize tail with
   | None -> Alcotest.fail "non-empty sample"
   | Some s ->
     Alcotest.(check int) "tail p99" 1 s.Sink.p99;
     Alcotest.(check int) "tail p999" 1 s.Sink.p999;
     Alcotest.(check int) "tail max" 500 s.Sink.max);
  let tail2 = Array.make 1000 1 in
  tail2.(999) <- 500; tail2.(998) <- 400;
  (match Sink.summarize tail2 with
   | None -> Alcotest.fail "non-empty sample"
   | Some s ->
     Alcotest.(check int) "two-straggler p999 hits the tail" 400 s.Sink.p999;
     Alcotest.(check int) "two-straggler p99 stays in the body" 1 s.Sink.p99)

(* [tee a b] must forward each event to [a] then [b], event by event —
   interleaved, never batched — so the second sink can rely on the first
   one's state being current for the same event. *)
let test_sink_tee_ordering () =
  let log = ref [] in
  let mk tag =
    { Sink.on_input = (fun ~at:_ ~proc:_ _ -> log := (tag, "input") :: !log);
      on_output = (fun ~at:_ ~proc:_ _ -> log := (tag, "output") :: !log);
      on_send = (fun _ -> log := (tag, "send") :: !log);
      on_deliver = (fun ~at:_ _ -> log := (tag, "deliver") :: !log);
      on_drop = (fun ~at:_ _ -> log := (tag, "drop") :: !log);
      on_step = (fun ~at:_ ~proc:_ -> log := (tag, "step") :: !log);
      on_crash = (fun ~at:_ ~proc:_ -> log := (tag, "crash") :: !log);
      on_recover = (fun ~at:_ ~proc:_ -> log := (tag, "recover") :: !log) }
  in
  let sink = Sink.tee (mk "a") (mk "b") in
  let env = { Msg.src = 0; dst = 1; payload = Ping 0; sent_at = 3; uid = 7 } in
  sink.Sink.on_step ~at:1 ~proc:0;
  sink.Sink.on_send env;
  sink.Sink.on_deliver ~at:5 env;
  sink.Sink.on_drop ~at:6 env;
  Alcotest.(check (list (pair string string))) "a before b, per event"
    [ ("a", "step"); ("b", "step");
      ("a", "send"); ("b", "send");
      ("a", "deliver"); ("b", "deliver");
      ("a", "drop"); ("b", "drop") ]
    (List.rev !log)

let test_sink_tee_and_jsonl () =
  let buf = Buffer.create 256 in
  let target = Trace.create ~n:3 in
  let sink =
    Sink.tee (Sink.recorder target)
      (Sink.jsonl ~emit:(fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n'))
  in
  let config = { (Engine.default_config ~n:3 ~deadline:30) with
                 Engine.sink = Some sink } in
  ignore (Engine.run config ~make_node:ping_node ~inputs:[]);
  Alcotest.(check int) "tee: recorder saw all deliveries" 9
    (List.length (Trace.outputs target));
  let lines =
    List.filter (fun s -> s <> "") (String.split_on_char '\n' (Buffer.contents buf))
  in
  Alcotest.(check bool) "jsonl emitted lines" true (List.length lines > 0);
  List.iter
    (fun l ->
       Alcotest.(check bool) "line is a json object" true
         (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  let count ev =
    List.length
      (List.filter
         (fun l ->
            String.length l > 7 + String.length ev
            && String.sub l 0 (8 + String.length ev) = {|{"ev":"|} ^ ev ^ {|"|})
         lines)
  in
  Alcotest.(check int) "one deliver line per delivery" 9 (count "deliver");
  Alcotest.(check int) "sends match recorder" (Trace.sent target) (count "send")

(* Bracket semantics: the channel is flushed and closed even when the
   observed run raises, and the result passes through when it returns. *)
let test_sink_with_jsonl_closes_on_raise () =
  let path = Filename.temp_file "ecsim_jsonl" ".jsonl" in
  (try
     Sink.with_jsonl path (fun sink ->
         sink.Sink.on_crash ~at:3 ~proc:1;
         raise Exit)
   with Exit -> ());
  let content = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "event flushed before the exception escaped"
    "{\"ev\":\"crash\",\"t\":3,\"proc\":1}\n" content;
  Alcotest.(check int) "result passes through" 7
    (Sink.with_jsonl path (fun _ -> 7));
  Sys.remove path

let test_sink_json_escape () =
  Alcotest.(check string) "quotes and backslashes" {|a\"b\\c\nd|}
    (Sink.json_escape "a\"b\\c\nd")

(* The acceptance bar for the counters sink: on a long chatty run it must
   allocate well under the full recorder (which conses an entry per
   input/output).  Measured with Gc.allocated_bytes on the same workload. *)
let test_sink_counters_allocates_less () =
  let deadline = 100_000 in
  let config = { (Engine.default_config ~n:3 ~deadline) with timer_period = 50 } in
  (* Gc.allocated_bytes only advances at GC points, so flush the minor
     heap around each measurement. *)
  let allocated f =
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    f ();
    Gc.minor ();
    Gc.allocated_bytes () -. before
  in
  let recorder_bytes =
    allocated (fun () ->
        ignore (Engine.run config ~make_node:chatty_node ~inputs:[]))
  in
  let c = Sink.counters ~n:3 in
  let counters_bytes =
    allocated (fun () ->
        ignore
          (Engine.run { config with Engine.sink = Some (Sink.counters_sink c) }
             ~make_node:chatty_node ~inputs:[]))
  in
  Alcotest.(check bool) "counters sink did observe the run" true
    (Sink.delivered c > 10_000);
  Alcotest.(check bool)
    (Printf.sprintf "counters (%.0f bytes) measurably below recorder (%.0f bytes)"
       counters_bytes recorder_bytes)
    true
    (counters_bytes +. 200_000.0 < recorder_bytes)

(* ------------------------------------------------------------------ *)
(* Trace utilities and listeners                                       *)
(* ------------------------------------------------------------------ *)

let test_trace_accessors () =
  let trace = Trace.create ~n:2 in
  Trace.record_input trace ~time:3 ~proc:0 (Io.String_input "in");
  Trace.record_output trace ~time:5 ~proc:1 (Io.String_output "out");
  Trace.record_output trace ~time:7 ~proc:0 (Io.String_output "out2");
  Alcotest.(check int) "entries" 3 (List.length (Trace.entries trace));
  Alcotest.(check int) "outputs" 2 (List.length (Trace.outputs trace));
  Alcotest.(check int) "inputs" 1 (List.length (Trace.inputs trace));
  Alcotest.(check int) "outputs_of p0" 1 (List.length (Trace.outputs_of trace 0));
  Alcotest.(check int) "inputs_of p0" 1 (List.length (Trace.inputs_of trace 0));
  Alcotest.(check int) "inputs_of p1" 0 (List.length (Trace.inputs_of trace 1));
  Alcotest.(check int) "last_time" 7 (Trace.last_time trace);
  (* Entries come back chronologically. *)
  match Trace.entries trace with
  | [ Trace.In { t = 3; _ }; Trace.Out { t = 5; _ }; Trace.Out { t = 7; _ } ] -> ()
  | _ -> Alcotest.fail "entry order"

let test_trace_counters () =
  let trace = Trace.create ~n:2 in
  Trace.count_sent trace;
  Trace.count_sent trace;
  Trace.count_delivered trace;
  Trace.count_dropped trace;
  Trace.count_step trace;
  Alcotest.(check int) "sent" 2 (Trace.sent trace);
  Alcotest.(check int) "delivered" 1 (Trace.delivered trace);
  Alcotest.(check int) "dropped" 1 (Trace.dropped trace);
  Alcotest.(check int) "steps" 1 (Trace.steps trace)

let test_listeners_fire_in_order () =
  let log = ref [] in
  let l = Listeners.create () in
  Listeners.register l (fun x -> log := ("a", x) :: !log);
  Listeners.register l (fun x -> log := ("b", x) :: !log);
  Listeners.fire l 1;
  Listeners.fire l 2;
  Alcotest.(check int) "count" 2 (Listeners.count l);
  Alcotest.(check (list (pair string int))) "order"
    [ ("a", 1); ("b", 1); ("a", 2); ("b", 2) ] (List.rev !log)

(* The register-heavy case that used to be O(n^2): many listeners must
   still fire in registration order. *)
let test_listeners_many_in_order () =
  let count = 1000 in
  let log = ref [] in
  let l = Listeners.create () in
  for i = 0 to count - 1 do
    Listeners.register l (fun x -> log := (i, x) :: !log)
  done;
  Listeners.fire l 42;
  Alcotest.(check int) "count" count (Listeners.count l);
  Alcotest.(check (list int)) "registration order"
    (List.init count (fun i -> i))
    (List.rev_map fst !log)

let test_io_printers_roundtrip () =
  let show_in i = Format.asprintf "%a" Io.pp_input i in
  let show_out o = Format.asprintf "%a" Io.pp_output o in
  Alcotest.(check string) "tick" "tick" (show_in Io.Tick_input);
  Alcotest.(check string) "string in" "in:x" (show_in (Io.String_input "x"));
  Alcotest.(check string) "string out" "out:y" (show_out (Io.String_output "y"))

let test_run_with_returns_handles () =
  let config = Engine.default_config ~n:3 ~deadline:20 in
  let _, handles =
    Engine.run_with config
      ~make_node:(fun ctx -> (Engine.idle_node, ctx.Engine.self * 10))
      ~inputs:[]
  in
  Alcotest.(check (array int)) "one handle per process" [| 0; 10; 20 |] handles

(* Reliable links: every message sent to a process that stays alive is
   delivered by some time, for any delay model. *)
let prop_engine_reliable_links =
  QCheck.Test.make ~name:"engine: eventual delivery to alive processes" ~count:50
    QCheck.(pair small_int (int_bound 3))
    (fun (seed, dmax) ->
       let config = { (Engine.default_config ~n:3 ~deadline:200) with
                      seed; delay = Net.uniform ~min:1 ~max:(2 + dmax) } in
       let trace = Engine.run config ~make_node:ping_node ~inputs:[] in
       List.length (got_events trace) = 9)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest
      [ prop_pqueue_sorts; prop_pqueue_differential; prop_pqueue_vs_model;
        prop_random_pattern_has_correct; prop_random_pattern_t_resilient;
        prop_random_admitted_env; prop_engine_reliable_links ]
  in
  Alcotest.run "simulator"
    [ ("pqueue",
       [ Alcotest.test_case "orders by priority" `Quick test_pqueue_orders;
         Alcotest.test_case "fifo among ties" `Quick test_pqueue_fifo_among_ties;
         Alcotest.test_case "size and peek" `Quick test_pqueue_size_and_peek ]);
      ("rng",
       [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
         Alcotest.test_case "bounds" `Quick test_rng_bounds;
         Alcotest.test_case "split independent" `Quick test_rng_split_independent;
         Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
         Alcotest.test_case "rejects bad bound" `Quick test_rng_rejects_bad_bound ]);
      ("failures",
       [ Alcotest.test_case "basics" `Quick test_failures_basics;
         Alcotest.test_case "crashed_by monotone" `Quick test_failures_crashed_by_monotone;
         Alcotest.test_case "double crash" `Quick test_failures_double_crash_keeps_earliest;
         Alcotest.test_case "environments" `Quick test_environments;
         Alcotest.test_case "recovery windows" `Quick
           test_failures_recovery_windows;
         Alcotest.test_case "windows merge" `Quick test_failures_windows_merge;
         Alcotest.test_case "recovery events sorted" `Quick
           test_failures_recovery_events_sorted;
         Alcotest.test_case "permanent crash wins" `Quick
           test_failures_permanent_crash_wins ]);
      ("net",
       [ Alcotest.test_case "constant" `Quick test_net_constant;
         Alcotest.test_case "uniform bounds" `Quick test_net_uniform_bounds;
         Alcotest.test_case "partition" `Quick test_net_partition_delays_cross_block;
         Alcotest.test_case "slow period" `Quick test_net_slow_period;
         Alcotest.test_case "fifo no overtaking" `Quick test_net_fifo_no_overtaking;
         Alcotest.test_case "fifo per link" `Quick test_net_fifo_per_link;
         Alcotest.test_case "fifo instances independent" `Quick
           test_net_fifo_instances_independent;
         Alcotest.test_case "local fast" `Quick test_net_local_fast ]);
      ("engine",
       [ Alcotest.test_case "delivers everything" `Quick test_engine_delivers_everything;
         Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
         Alcotest.test_case "seed changes run" `Quick test_engine_seed_changes_run;
         Alcotest.test_case "crashed take no steps" `Quick test_engine_crashed_take_no_steps;
         Alcotest.test_case "drop at delivery" `Quick
           test_engine_message_to_crashed_dropped_at_delivery;
         Alcotest.test_case "recovery restarts node" `Quick
           test_engine_recovery_restarts_node;
         Alcotest.test_case "run_with latest incarnation" `Quick
           test_engine_run_with_latest_incarnation;
         Alcotest.test_case "crash/recover marks" `Quick
           test_engine_crash_recover_marks;
         Alcotest.test_case "timer cadence" `Quick test_engine_timer_cadence;
         Alcotest.test_case "inputs" `Quick test_engine_inputs_delivered_in_time;
         Alcotest.test_case "inputs to crashed dropped" `Quick
           test_engine_inputs_to_crashed_are_dropped;
         Alcotest.test_case "combine" `Quick test_engine_combine_both_components_see_events;
         Alcotest.test_case "deadline" `Quick test_engine_deadline_truncates;
         Alcotest.test_case "rejects bad config" `Quick test_engine_rejects_bad_config;
         Alcotest.test_case "run_with handles" `Quick test_run_with_returns_handles;
         Alcotest.test_case "fifo model fresh per run" `Quick
           test_engine_fifo_model_fresh_per_run ]);
      ("sink",
       [ Alcotest.test_case "counters matches recorder" `Quick
           test_sink_counters_matches_recorder;
         Alcotest.test_case "nearest-rank quantiles exact" `Quick
           test_sink_nearest_rank_exact;
         Alcotest.test_case "tee ordering" `Quick test_sink_tee_ordering;
         Alcotest.test_case "tee and jsonl" `Quick test_sink_tee_and_jsonl;
         Alcotest.test_case "with_jsonl closes on raise" `Quick
           test_sink_with_jsonl_closes_on_raise;
         Alcotest.test_case "json escape" `Quick test_sink_json_escape;
         Alcotest.test_case "counters allocates less" `Slow
           test_sink_counters_allocates_less ]);
      ("trace",
       [ Alcotest.test_case "accessors" `Quick test_trace_accessors;
         Alcotest.test_case "counters" `Quick test_trace_counters ]);
      ("listeners",
       [ Alcotest.test_case "fire in order" `Quick test_listeners_fire_in_order;
         Alcotest.test_case "many in order" `Quick test_listeners_many_in_order ]);
      ("io",
       [ Alcotest.test_case "printers" `Quick test_io_printers_roundtrip ]);
      ("properties", qc);
    ]
