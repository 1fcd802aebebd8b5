(* The binary framed trace codec and CRC32 WAL, locked down by a
   differential/golden battery:

   - CRC-32 known-answer vectors pin the checksum to the zlib/IEEE one.
   - Every golden scenario family (stable, crash, anti-entropy,
     recoverable) runs once with [Sink.jsonl] and once with
     [Sink.binary]; decoding the binary stream and exporting it with
     [Frame.to_jsonl] must reproduce the direct jsonl stream byte for
     byte — the two formats are held to lossless equivalence on real
     runs, not just on generated values.
   - QCheck roundtrips [decode . encode = id] over generated events and
     spec records; truncating or garbling a file yields a positioned
     error (or a clean prefix when the cut lands exactly on a record
     boundary) and never raises.
   - A committed fixture corpus (test/fixtures/trace_*.bin) pins the v1
     wire format: well-formed bytes decode to exactly the pinned items,
     and torn / CRC-damaged / wrong-version files fail with the pinned
     positioned errors.  The fixtures were written by an independent
     generator (scripts/make_trace_fixtures.py), so they also
     cross-validate the format against a second implementation.
   - The WAL differential: under every disk fault, the legacy Md5 store
     and the framed Crc32 store recover the identical decoded state
     (records, snapshot, loss/detection counters) — the checksum swap is
     invisible above the byte layer.
   - A binary `.trace.bin` artifact (event stream + embedded spec
     record) is a self-contained replay unit: a finding explored and
     shrunk under the ordinary pipeline replays from its binary artifact
     to the same digest. *)

open Simulator
open Ec_core
module Frame = Persist.Frame
module Store = Persist.Store
module Builder = Harness.Builder
module Adversity = Harness.Adversity
module Stacks = Harness.Stacks

let oracle =
  Stacks.Oracle { stabilize_at = 0; pre = Detectors.Omega.Self_trust }

(* ------------------------------------------------------------------ *)
(* CRC-32 known answers                                                *)
(* ------------------------------------------------------------------ *)

let test_crc32_vectors () =
  let check name expected s =
    Alcotest.(check string) name expected (Printf.sprintf "%08x" (Frame.crc32 s))
  in
  (* The canonical CRC-32/ISO-HDLC check value, plus zlib-verified
     vectors: any deviation means we are not computing the zlib/IEEE
     checksum any more. *)
  check "empty" "00000000" "";
  check "check value" "cbf43926" "123456789";
  check "single byte" "e8b7be43" "a";
  check "all byte values" "29058c73"
    (String.init 256 Char.chr);
  (* Incremental feed distributes over concatenation. *)
  let a = "hello " and b = "world" in
  Alcotest.(check int) "incremental = whole"
    (Frame.crc32 (a ^ b))
    (Frame.crc32_finish (Frame.crc32_feed (Frame.crc32_feed Frame.crc32_init a) b))

(* ------------------------------------------------------------------ *)
(* Golden-scenario differential: jsonl vs binary                       *)
(* ------------------------------------------------------------------ *)

let posts count from_time every = Builder.Posts { count; from_time; every }

let stable_b =
  { (Builder.create ~n:3 ~deadline:120
       ~delay:(Builder.Uniform { min_d = 1; max_d = 4 })
       (Builder.Etob Stacks.Algorithm_5))
    with Builder.workload = posts 6 8 5; omega = Some oracle }

let crash_b =
  { (Builder.create ~seed:13 ~n:4 ~deadline:160
       ~delay:(Builder.Uniform { min_d = 1; max_d = 4 })
       (Builder.Etob Stacks.Algorithm_5))
    with Builder.workload = posts 8 6 6;
         plan = Adversity.make [ Adversity.Crash { proc = 3; at = 40 } ];
         omega = Some oracle }

let ae_b =
  { (Builder.create ~n:4 ~deadline:240
       ~delay:(Builder.Uniform { min_d = 1; max_d = 3 })
       Builder.Etob_ae)
    with Builder.workload = posts 12 8 8;
         plan =
           Adversity.make
             [ Adversity.Lossy_partition
                 { left = [ 3 ]; from_time = 40; until_time = 120 } ];
         omega = Some oracle }

let recoverable_b =
  { (Builder.create ~seed:3 ~n:4 ~deadline:300
       ~delay:(Builder.Uniform { min_d = 1; max_d = 3 })
       (Builder.Recoverable { ae = false }))
    with Builder.workload = posts 12 8 20;
         plan =
           Adversity.make
             [ Adversity.Crash_recover { proc = 1; at = 60; recover_at = 140 } ];
         omega = Some oracle }

let scenarios =
  [ ("stable", stable_b); ("crash", crash_b); ("ae", ae_b);
    ("recoverable", recoverable_b) ]

let jsonl_lines_of b =
  let lines = ref [] in
  let sink = Sink.jsonl ~emit:(fun s -> lines := s :: !lines) in
  ignore (Builder.run { b with Builder.sink = Some sink });
  List.rev !lines

let binary_bytes_of b =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf Frame.header;
  let sink = Sink.binary ~emit:(Buffer.add_string buf) in
  ignore (Builder.run { b with Builder.sink = Some sink });
  Buffer.contents buf

let test_differential () =
  List.iter
    (fun (name, b) ->
       let direct = jsonl_lines_of b in
       let bytes = binary_bytes_of b in
       match Frame.decode bytes with
       | Error e ->
         Alcotest.failf "%s: binary decode failed: %a" name Frame.pp_error e
       | Ok items ->
         Alcotest.(check (list string))
           (name ^ ": decoded export byte-identical to jsonl")
           direct (Frame.to_jsonl items);
         let jsonl_bytes =
           List.fold_left (fun acc l -> acc + String.length l + 1) 0 direct
         in
         Alcotest.(check bool)
           (name ^ ": binary strictly smaller than jsonl") true
           (String.length bytes < jsonl_bytes))
    scenarios

(* The differential is only meaningful if the scenarios actually cover
   the whole event vocabulary.  Crash/recover marks are only emitted for
   downtime windows (a permanent crash-stop just stops being stepped, see
   Engine), so the recoverable scenario is where both must appear. *)
let test_differential_covers_marks () =
  let contains fragment l =
    let n = String.length l and m = String.length fragment in
    let rec go i = i + m <= n && (String.sub l i m = fragment || go (i + 1)) in
    go 0
  in
  let recov_lines = jsonl_lines_of recoverable_b in
  Alcotest.(check bool) "recoverable scenario logs a crash mark" true
    (List.exists (contains {|"ev":"crash"|}) recov_lines);
  Alcotest.(check bool) "recoverable scenario logs a recover mark" true
    (List.exists (contains {|"ev":"recover"|}) recov_lines)

(* ------------------------------------------------------------------ *)
(* QCheck roundtrips and damage properties                             *)
(* ------------------------------------------------------------------ *)

let encode_trace evs =
  Frame.header ^ String.concat "" (List.map Frame.event_record evs)

let roundtrip_test =
  QCheck.Test.make ~count:500 ~name:"frame: decode (encode evs) = evs"
    Qgen.frame_events_arb (fun evs ->
        match Frame.decode (encode_trace evs) with
        | Error _ -> false
        | Ok items -> Frame.events items = evs && Frame.spec items = None)

let spec_roundtrip_test =
  QCheck.Test.make ~count:200 ~name:"frame: last spec record wins, text intact"
    QCheck.(
      triple Qgen.frame_events_arb
        (string_gen_of_size Gen.(int_range 0 60) Gen.char)
        (string_gen_of_size Gen.(int_range 0 60) Gen.char))
    (fun (evs, s1, s2) ->
       let file =
         Frame.header ^ Frame.spec_record s1
         ^ String.concat "" (List.map Frame.event_record evs)
         ^ Frame.spec_record s2
       in
       match Frame.decode file with
       | Error _ -> false
       | Ok items -> Frame.spec items = Some s2 && Frame.events items = evs)

(* Truncation at any byte: a cut exactly on a record boundary yields the
   clean prefix; any other cut yields a positioned error.  Decoding never
   raises either way. *)
let truncation_test =
  QCheck.Test.make ~count:500 ~name:"frame: truncation = prefix or positioned error"
    QCheck.(pair Qgen.frame_events_arb small_nat)
    (fun (evs, k) ->
       let s = encode_trace evs in
       let cut = k mod String.length s in
       let prefix = String.sub s 0 cut in
       let boundaries =
         (* file positions just after the header and after each record *)
         let rec go acc pos = function
           | [] -> List.rev acc
           | ev :: rest ->
             let pos = pos + String.length (Frame.event_record ev) in
             go (pos :: acc) pos rest
         in
         go [ 8 ] 8 evs
       in
       match Frame.decode prefix with
       | Ok items ->
         List.mem cut boundaries
         && Frame.events items
            = (let keep =
                 List.length (List.filter (fun b -> b <= cut) boundaries) - 1
               in
               List.filteri (fun i _ -> i < keep) evs)
       | Error e -> (not (List.mem cut boundaries)) && e.Frame.pos >= 0)

(* Garbling any single byte is always detected: header damage, length
   damage, CRC damage and payload damage all surface as an error (CRC-32
   catches every single-byte corruption), never as an exception and never
   as silently different data. *)
let garble_test =
  QCheck.Test.make ~count:500 ~name:"frame: single-byte garble = positioned error"
    QCheck.(pair Qgen.frame_events_arb small_nat)
    (fun (evs, k) ->
       QCheck.assume (evs <> []);
       let s = Bytes.of_string (encode_trace evs) in
       let pos = k mod Bytes.length s in
       Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 0xff));
       match Frame.decode (Bytes.to_string s) with
       | Error e -> e.Frame.pos >= 0 && e.Frame.pos <= Bytes.length s
       | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Fixture corpus: the committed v1 wire format                        *)
(* ------------------------------------------------------------------ *)

let read_fixture name =
  In_channel.with_open_bin (Filename.concat "fixtures" name)
    In_channel.input_all

let fixture_spec_text = "ecsim-spec v1\nfixture\n"

let fixture_items =
  [ Frame.Event (Frame.Input { t = 5; proc = 1; v = "post \"a\"\n" });
    Frame.Event (Frame.Send { t = 6; src = 1; dst = 2; uid = 300 });
    Frame.Event (Frame.Deliver { t = 9; src = 1; dst = 2; uid = 300; lat = 3 });
    Frame.Event (Frame.Crash { t = 20; proc = 0 });
    Frame.Spec fixture_spec_text ]

let test_fixture_ok () =
  match Frame.decode (read_fixture "trace_v1_ok.bin") with
  | Error e -> Alcotest.failf "well-formed fixture: %a" Frame.pp_error e
  | Ok items ->
    Alcotest.(check bool) "pinned items" true (items = fixture_items);
    Alcotest.(check (list string)) "pinned jsonl export"
      [ {|{"ev":"input","t":5,"proc":1,"v":"post \"a\"\n"}|};
        {|{"ev":"send","t":6,"src":1,"dst":2,"uid":300}|};
        {|{"ev":"deliver","t":9,"src":1,"dst":2,"uid":300,"lat":3}|};
        {|{"ev":"crash","t":20,"proc":0}|} ]
      (Frame.to_jsonl items);
    Alcotest.(check (option string)) "pinned spec" (Some fixture_spec_text)
      (Frame.spec items)

let check_fixture_error name expected_pos expected_reason_prefix =
  match Frame.decode (read_fixture name) with
  | Ok _ -> Alcotest.failf "%s decoded cleanly" name
  | Error e ->
    Alcotest.(check int) (name ^ ": pinned error position") expected_pos
      e.Frame.pos;
    let prefix_len = String.length expected_reason_prefix in
    Alcotest.(check string) (name ^ ": pinned error reason")
      expected_reason_prefix
      (String.sub e.Frame.reason 0 (min prefix_len (String.length e.Frame.reason)))

let test_fixture_torn_tail () =
  (* the spec record's frame (starting at byte 73) is torn mid-payload *)
  check_fixture_error "trace_torn_tail.bin" 73 "truncated frame payload"

let test_fixture_bad_crc () =
  (* one payload byte of the send record (frame at byte 30) is damaged *)
  check_fixture_error "trace_bad_crc.bin" 30 "frame checksum mismatch"

let test_fixture_bad_version () =
  check_fixture_error "trace_bad_version.bin" 7
    "unsupported format version 2 (expected 1)"

(* ------------------------------------------------------------------ *)
(* WAL differential: Md5 vs Crc32 under every disk fault               *)
(* ------------------------------------------------------------------ *)

let wal_case_arb =
  QCheck.make
    ~print:(fun (payloads, snapshot, sync_at, fault) ->
        Printf.sprintf "payloads=%s snapshot=%s sync_at=%d fault=%s"
          (QCheck.Print.(list string) payloads)
          (QCheck.Print.(option string) snapshot)
          sync_at
          (Store.fault_to_string fault))
    QCheck.Gen.(
      let* payloads = Qgen.wal_payloads_gen in
      let* snapshot = option Qgen.wal_payload_gen in
      let* sync_at = int_range 0 (List.length payloads - 1) in
      let* fault =
        oneofl
          [ Store.Torn_tail; Store.Lost_suffix 1; Store.Lost_suffix 2;
            Store.Corrupt_record ]
      in
      return (payloads, snapshot, sync_at, fault))

let replay checksum (payloads, snapshot, sync_at, fault) =
  let s = Store.create ~checksum () in
  ignore (Store.open_ s);
  Option.iter (Store.install_snapshot s) snapshot;
  List.iteri
    (fun i p ->
       Store.append s p;
       if i = sync_at then Store.sync s)
    payloads;
  Store.arm_fault s fault;
  let o = Store.open_ s in
  let st = Store.stats s in
  ( o.Store.snapshot, o.Store.records,
    st.Store.records_lost, st.Store.corrupt_detected )

let wal_differential_test =
  QCheck.Test.make ~count:500
    ~name:"store: Md5 and Crc32 recover identical decoded state"
    wal_case_arb
    (fun case ->
       let md5 = replay Store.Md5 case
       and crc = replay Store.Crc32 case in
       let (snapshot, records, _, _) = crc in
       let (payloads, snap_in, _, _) = case in
       (* identical across schemes... *)
       md5 = crc
       (* ...and structurally sane: the snapshot round-trips and the
          recovered log is a prefix of what was appended. *)
       && snapshot = snap_in
       && List.length records <= List.length payloads
       && List.for_all2 String.equal records
            (List.filteri (fun i _ -> i < List.length records) payloads))

let wal_roundtrip_test =
  QCheck.Test.make ~count:300
    ~name:"store: faultless crash replays every byte-arbitrary record"
    Qgen.wal_payloads_arb
    (fun payloads ->
       List.for_all
         (fun checksum ->
            let s = Store.create ~checksum () in
            ignore (Store.open_ s);
            List.iter (Store.append s) payloads;
            let o = Store.open_ s in
            o.Store.records = payloads)
         [ Store.Md5; Store.Crc32 ])

let test_snapshot_checksummed () =
  List.iter
    (fun checksum ->
       let s = Store.create ~checksum () in
       ignore (Store.open_ s);
       Store.install_snapshot s "state \x00\xff bytes";
       Store.append s "after";
       Store.arm_fault s Store.Torn_tail;
       let o = Store.open_ s in
       Alcotest.(check (option string))
         (Store.checksum_name checksum ^ ": snapshot survives intact")
         (Some "state \x00\xff bytes") o.Store.snapshot;
       Alcotest.(check (list string))
         (Store.checksum_name checksum ^ ": torn dirty record discarded")
         [] o.Store.records;
       Alcotest.(check int)
         (Store.checksum_name checksum ^ ": tear detected")
         1 (Store.stats s).Store.corrupt_detected)
    [ Store.Md5; Store.Crc32 ]

(* ------------------------------------------------------------------ *)
(* Binary artifacts are self-contained replay units                    *)
(* ------------------------------------------------------------------ *)

let with_temp_bin f =
  let path = Filename.temp_file "ecsim_test" ".trace.bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let replay_binary_artifact path =
  match Builder.binary_spec path with
  | Error e -> Alcotest.fail e
  | Ok spec_text ->
    (match Builder.of_string spec_text with
     | Error e -> Alcotest.failf "embedded spec does not parse: %s" e
     | Ok b ->
       (spec_text, Builder.run ~digest:true ~catch:true b))

let test_binary_artifact_digest_roundtrip () =
  with_temp_bin (fun path ->
      let b = crash_b in
      let o =
        Builder.run ~digest:true
          { b with Builder.trace_out = Some (path, Builder.Binary) }
      in
      Builder.append_binary_spec path ~digest:o.Builder.digest
        ~violations:o.Builder.violations b;
      let spec_text, o' = replay_binary_artifact path in
      Alcotest.(check (option string)) "digest recorded in artifact"
        (Some o.Builder.digest)
        (Builder.recorded_digest spec_text);
      Alcotest.(check string) "replayed digest matches" o.Builder.digest
        o'.Builder.digest)

(* The full loop the smoke gate also drives: catch a seeded mutant by
   exploring generated plans, shrink the finding under the ordinary
   (jsonl-era) pipeline, then replay its binary artifact back to the
   same digest. *)
let test_shrunk_finding_replays_from_binary () =
  let n = 4 and deadline = 160 in
  let mk plan =
    { (Builder.create ~n ~deadline
         ~delay:(Builder.Uniform { min_d = 1; max_d = 4 })
         (Builder.Etob Stacks.Algorithm_5))
      with Builder.workload = Builder.Auto_posts { count = 6; stretch = false };
           plan;
           omega = Some oracle;
           checkers = [ Builder.Etob_spec Builder.Tau_auto ];
           mutation = Some Etob_omega.Skip_dependency_wait }
  in
  let gen i =
    (* detlint: allow D1 the state is derived from the fixed seed and the plan index, so every exploration step replays deterministically *)
    let rand = Random.State.make [| 0x5eed; i |] in
    mk (QCheck.Gen.generate1 ~rand (Qgen.plan_gen ~n ~deadline))
  in
  let e = Builder.explore ~gen ~budget:200 () in
  match e.Builder.found with
  | None -> Alcotest.fail "seeded mutant not caught within budget"
  | Some o ->
    let shrunk =
      Builder.shrink
        ~rebuild:(fun plan -> { o.Builder.builder with Builder.plan })
        o
    in
    Alcotest.(check bool) "shrunk finding still violates" true
      (shrunk.Builder.violations <> []);
    with_temp_bin (fun path ->
        let sb = shrunk.Builder.builder in
        let o2 =
          Builder.run ~digest:true ~catch:true
            { sb with Builder.trace_out = Some (path, Builder.Binary) }
        in
        Alcotest.(check string) "shrunk finding is deterministic"
          shrunk.Builder.digest o2.Builder.digest;
        Builder.append_binary_spec path ~digest:o2.Builder.digest
          ~violations:o2.Builder.violations sb;
        let _, o3 = replay_binary_artifact path in
        Alcotest.(check string) "binary artifact replays to same digest"
          shrunk.Builder.digest o3.Builder.digest;
        Alcotest.(check bool) "replay reproduces the violation" true
          (o3.Builder.violations <> []))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "frame"
    [ ( "crc32",
        [ Alcotest.test_case "known answers" `Quick test_crc32_vectors ] );
      ( "differential",
        [ Alcotest.test_case "jsonl vs binary on golden scenarios" `Quick
            test_differential;
          Alcotest.test_case "scenarios cover crash/recover marks" `Quick
            test_differential_covers_marks ] );
      ( "roundtrip",
        [ QCheck_alcotest.to_alcotest roundtrip_test;
          QCheck_alcotest.to_alcotest spec_roundtrip_test;
          QCheck_alcotest.to_alcotest truncation_test;
          QCheck_alcotest.to_alcotest garble_test ] );
      ( "fixtures",
        [ Alcotest.test_case "well-formed v1" `Quick test_fixture_ok;
          Alcotest.test_case "torn tail" `Quick test_fixture_torn_tail;
          Alcotest.test_case "corrupt CRC" `Quick test_fixture_bad_crc;
          Alcotest.test_case "unknown version" `Quick test_fixture_bad_version
        ] );
      ( "wal",
        [ QCheck_alcotest.to_alcotest wal_differential_test;
          QCheck_alcotest.to_alcotest wal_roundtrip_test;
          Alcotest.test_case "snapshot checksummed" `Quick
            test_snapshot_checksummed ] );
      ( "artifact",
        [ Alcotest.test_case "digest roundtrip" `Quick
            test_binary_artifact_digest_roundtrip;
          Alcotest.test_case "shrunk finding replays from binary" `Slow
            test_shrunk_finding_replays_from_binary ] ) ]
