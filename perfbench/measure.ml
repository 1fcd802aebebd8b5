(* What the three workloads share: seeds, samples, the timed closed loop,
   repeated set-up, and the result they hand back to [Main]. *)

(* ------------------------------------------------------------------ *)
(* Seeds                                                               *)
(* ------------------------------------------------------------------ *)

(* SplitMix-style mixing of (run seed, index) into a positive engine
   seed below one million: the only source of every item's inputs. *)
let derive ~seed index =
  let z = ref ((seed * 0x9E3779B9) + (index * 0x85EBCA6B) + 0x2545F491) in
  z := (!z lxor (!z lsr 30)) * 0x3F4A7C15;
  z := (!z lxor (!z lsr 27)) * 0x1CE4E5B9;
  z := !z lxor (!z lsr 31);
  1 + ((!z land max_int) mod 999_983)

(* ------------------------------------------------------------------ *)
(* Samples                                                             *)
(* ------------------------------------------------------------------ *)

(* A growable float vector; growth allocates between items, never inside
   one.  Its initial room covers a default run, so the benchmark's own
   heap does not grow with the item count and [peak_heap_mb] does not
   follow throughput. *)
type vec = { mutable data : float array; mutable len : int }

let vec () = { data = Array.make 16384 0.; len = 0 }

let push v x =
  if v.len = Array.length v.data then
    v.data <- Array.append v.data (Array.make v.len 0.);
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let to_array v = Array.sub v.data 0 v.len

(* Linearly interpolated quantile of an unsorted sample. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

let ms_since t0 = (Mono.now_ns () -. t0) /. 1e6

(* Set-up takes from well under a millisecond to a few milliseconds and
   includes file-system calls, so one reading only catches the machine at
   one moment.  It is timed a few times before the run and then again
   after every item (or campaign), untimed for the items, so that its
   median, like the items', spans the whole run. *)
type setup = { times : vec; redo : unit -> unit }

(* Set up [f] five times; returns the ready items and the handle that
   sets up again. *)
let setup f =
  let times = vec () in
  let timed () =
    let t0 = Mono.now_ns () in
    let r = f () in
    push times ((Mono.now_ns () -. t0) /. 1e9);
    r
  in
  let ready = timed () in
  for _ = 2 to 5 do
    ignore (timed ())
  done;
  (ready, { times; redo = (fun () -> ignore (timed ())) })

type samples = {
  lat_ms : vec;  (** per-item latency *)
  words : vec;  (** per-item exact minor words *)
  mutable wall_ms : float;  (** timed wall time, checks excluded *)
}

let samples () = { lat_ms = vec (); words = vec (); wall_ms = 0. }

(* Time one item: latency and exact minor words go into [s]. *)
let timed s f =
  let w0 = Gc.minor_words () in
  let t0 = Mono.now_ns () in
  let r = f () in
  let t1 = Mono.now_ns () in
  let w1 = Gc.minor_words () in
  push s.lat_ms ((t1 -. t0) /. 1e6);
  push s.words (w1 -. w0);
  r

(* Per item slot (a pool item, a campaign job): how often it ran, and the
   exact words of its first run, against which its repeats are held. *)
type slots = {
  runs : int array;
  first_words : float array;
  mutable drift : int;  (** repeats whose words differed from the first run's *)
}

let slots n = { runs = Array.make n 0; first_words = Array.make n nan; drift = 0 }

(* File [s]'s latest sample under [slot]. *)
let record sl slot s =
  let w = s.words.data.(s.words.len - 1) in
  sl.runs.(slot) <- sl.runs.(slot) + 1;
  if Float.is_nan sl.first_words.(slot) then sl.first_words.(slot) <- w
  else if sl.first_words.(slot) <> w then sl.drift <- sl.drift + 1

(* The closed loop: one caller, each item starts when the previous one
   has returned and been checked.  [item i] runs item [i] under [timed];
   [check i r] runs untimed.  Stops once [budget_ms] of timed wall time
   has elapsed. *)
let closed_loop s ~budget_ms ~item ~check =
  let i = ref 0 in
  while s.wall_ms < budget_ms do
    let t0 = Mono.now_ns () in
    let r = timed s (fun () -> item !i) in
    s.wall_ms <- s.wall_ms +. ms_since t0;
    check !i r;
    incr i
  done

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  attempted : int;
  failed : int;
  problems : string list;  (** why an item or a probe failed *)
  metrics : metric list;
  info : (string * string) list;  (** printed, never gated *)
}

(* Every item's latency and exact words, one item a line, for reading
   the run behind its medians. *)
let write_samples s path =
  Out_channel.with_open_text path (fun oc ->
      for i = 0 to s.lat_ms.len - 1 do
        Printf.fprintf oc "%.6f\t%.0f\n" s.lat_ms.data.(i) s.words.data.(i)
      done)

(* The five end-to-end metrics, from untraced samples; [run_tail_ms] is
   the [tail] quantile, the workload's highest that stays steady with at
   least ten samples beyond it (see README.md).  The peak heap is
   read from [Gc.quick_stat], whose heap sizes are exact; only its
   minor-word counter moves in minor-heap steps, and words are counted
   with [Gc.minor_words ()] instead. *)
let end_to_end ~prep ~tail s =
  let lat = to_array s.lat_ms in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words in
  [ m "setup_s" "s" (median (to_array prep.times));
    m "runs_per_s" "1/s" (float_of_int s.lat_ms.len /. (s.wall_ms /. 1e3));
    m "run_p50_ms" "ms" (median lat);
    m "run_tail_ms" "ms" (quantile lat tail);
    m "peak_heap_mb" "MB" (float_of_int (heap * (Sys.word_size / 8)) /. 1e6) ]

(* A record of where each item's bookkeeping failed. *)
type ledger = { mutable fails : int; mutable why : string list }

let ledger () = { fails = 0; why = [] }

(* [items] items failed, for the reason [fmt]. *)
let fail_items l items fmt =
  Printf.ksprintf
    (fun msg ->
       l.fails <- l.fails + items;
       if List.length l.why < 8 then l.why <- msg :: l.why)
    fmt

let fail l fmt = fail_items l 1 fmt

(* Where a run leaves its artifacts, journals and spans, relative to the
   checkout it runs in. *)
let out_dir = "_perfbench"

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end
