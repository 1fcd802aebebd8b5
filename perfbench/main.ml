(* The benchmark's executable: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints informational lines, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. *)

let workloads =
  [ ("check_dense", Check_dense.run);
    ("wide_run", Wide_run.run);
    ("fault_soak", Fault_soak.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload check_dense|wide_run|fault_soak --seed N \
     --seconds S --trace 0|1";
  exit 2

let args () =
  let rec go acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      go ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let run =
    match List.assoc_opt (get "workload") workloads with
    | Some run -> run
    | None -> usage ()
  in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  (run, int "seed", seconds, trace)

(* Every value printed with all its digits; JSON has no NaN or infinity. *)
let number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_string s = "\"" ^ Simulator.Sink.json_escape s ^ "\""

let () =
  let run, seed, seconds, trace = args () in
  Measure.mkdirs Measure.out_dir;
  let r = run ~seed ~seconds ~trace in
  List.iter (fun (k, v) -> Printf.printf "%s %s\n" k v) r.Measure.info;
  List.iter (fun p -> Printf.printf "problem %s\n" p) r.Measure.problems;
  let metrics =
    List.map
      (fun { Measure.name; value; unit_ } ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
           (number value) (json_string unit_))
      r.Measure.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.Measure.problems = [] && r.Measure.failed = 0 && r.Measure.attempted > 0)
    r.Measure.attempted r.Measure.failed
    (String.concat ", " metrics)
