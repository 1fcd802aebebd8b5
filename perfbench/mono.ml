(* Monotonic clock readings in nanoseconds, unboxed and allocation-free. *)

external now_ns : unit -> (float[@unboxed])
  = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

(* Per-reading cost of the clock, median of [rounds] batches of [batch]
   back-to-back readings.  The tracer reads it twice per layer switch. *)
let call_ns () =
  let rounds = 15 and batch = 20_000 in
  let per = Array.make rounds 0. in
  for r = 0 to rounds - 1 do
    let t0 = now_ns () in
    for _ = 1 to batch do
      ignore (Sys.opaque_identity (now_ns ()))
    done;
    per.(r) <- (now_ns () -. t0) /. float_of_int batch
  done;
  Array.sort Float.compare per;
  per.(rounds / 2)
