(* Direct profiler tests on a program with known counts: function
   invocations, loop invocations vs iterations, inclusive times,
   per-task memory footprints, and recursion handling. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module Arch = No_arch.Arch
module Layout = No_arch.Layout
module Host = No_exec.Host
module Interp = No_exec.Interp
module Profiler = No_profiler.Profiler

let build () =
  let t = B.create "profiled" in
  let _ =
    B.func t "leaf" ~params:[ Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
        let n = List.nth args 0 in
        let acc = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64 0) acc;
        B.for_ fb ~name:"leaf_loop" ~from:(B.i64 0) ~below:(B.i64 10)
          (fun iv ->
            let c = B.load fb Ty.I64 acc in
            B.store fb Ty.I64 (B.iadd fb c iv) acc);
        B.ret fb (Some (B.iadd fb n (B.load fb Ty.I64 acc))))
  in
  let _ =
    B.func t "toucher" ~params:[] ~ret:Ty.Void (fun fb _ ->
        (* touch 4 pages of heap *)
        let buf = B.call fb "malloc" [ B.i64 (4 * 4096) ] in
        B.for_ fb ~name:"touch_loop" ~from:(B.i64 0) ~below:(B.i64 4)
          (fun i ->
            let off = B.imul fb i (B.i64 4096) in
            let p = B.gep fb Ty.I8 buf [ Ir.Index off ] in
            B.store fb Ty.I8 (B.i8 1) p);
        B.ret_void fb)
  in
  let _ =
    B.func t "rec" ~params:[ Ty.I64 ] ~ret:Ty.I64 (fun fb args ->
        let n = List.nth args 0 in
        let base = B.cmp fb Ir.Sle n (B.i64 0) in
        B.if_ fb base ~then_:(fun () -> B.ret fb (Some (B.i64 0))) ();
        let r = B.call fb "rec" [ B.isub fb n (B.i64 1) ] in
        B.ret fb (Some (B.iadd fb r (B.i64 1))))
  in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        B.for_ fb ~name:"main_loop" ~from:(B.i64 0) ~below:(B.i64 3)
          (fun iv -> B.effect fb (Ir.Call ("leaf", [ iv ])));
        B.call_void fb "toucher" [];
        B.effect fb (Ir.Call ("rec", [ B.i64 5 ]));
        B.ret fb (Some (B.i64 0)))
  in
  B.finish t

let make_host () =
  let m = build () in
  let layout = Layout.env_of_arch Arch.arm32 ~structs:(Ir.find_struct_exn m) in
  Host.create ~arch:Arch.arm32 ~role:Host.Mobile ~modul:m ~layout ()

let profile () =
  let host = make_host () in
  let profiler = Profiler.attach host in
  ignore (Interp.run_main host);
  Profiler.detach profiler;
  Profiler.results profiler

let sample samples kind name =
  match Profiler.find_sample samples ~kind ~name with
  | Some s -> s
  | None -> Alcotest.failf "no sample for %s" name

let test_counts () =
  let samples = profile () in
  let leaf = sample samples Profiler.Func "leaf" in
  Alcotest.(check int) "leaf invocations" 3 leaf.Profiler.s_invocations;
  let loop = sample samples Profiler.Loop "leaf_loop" in
  Alcotest.(check int) "loop invocations" 3 loop.Profiler.s_invocations;
  Alcotest.(check int) "loop iterations" 33 loop.Profiler.s_iterations
  (* 3 invocations x (10 body entries + 1 exit check) per the header-
     entry counting convention *)

let test_inclusive_times () =
  let samples = profile () in
  let main = sample samples Profiler.Func "main" in
  let leaf = sample samples Profiler.Func "leaf" in
  let toucher = sample samples Profiler.Func "toucher" in
  Alcotest.(check bool) "main includes leaf" true
    (main.Profiler.s_time >= leaf.Profiler.s_time);
  Alcotest.(check bool) "main includes toucher" true
    (main.Profiler.s_time >= toucher.Profiler.s_time);
  Alcotest.(check bool) "times positive" true (leaf.Profiler.s_time > 0.0)

let test_memory_footprint () =
  let samples = profile () in
  let toucher = sample samples Profiler.Func "toucher" in
  (* 4 heap pages + a stack page or two *)
  Alcotest.(check bool)
    (Printf.sprintf "toucher footprint %d in [4,8] pages"
       (toucher.Profiler.s_mem_bytes / 4096))
    true
    (toucher.Profiler.s_mem_bytes >= 4 * 4096
    && toucher.Profiler.s_mem_bytes <= 8 * 4096)

let test_recursion () =
  let samples = profile () in
  let rec_s = sample samples Profiler.Func "rec" in
  (* every activation counts as an invocation; time only for the
     outermost (no double counting) *)
  Alcotest.(check int) "rec invocations" 6 rec_s.Profiler.s_invocations;
  let main = sample samples Profiler.Func "main" in
  Alcotest.(check bool) "rec time <= main time" true
    (rec_s.Profiler.s_time <= main.Profiler.s_time)

(* Hooks installed before [attach] come back at [detach]. *)
let test_detach_restores_hooks () =
  let host = make_host () in
  let entered = ref 0 in
  let mine _ = incr entered in
  host.Host.hooks.Host.on_enter <- mine;
  let profiler = Profiler.attach host in
  ignore (Interp.run_main host);
  Profiler.detach profiler;
  Alcotest.(check int) "profiler owned the hook while attached" 0 !entered;
  Alcotest.(check bool) "pre-installed on_enter restored" true
    (host.Host.hooks.Host.on_enter == mine);
  Alcotest.(check bool) "no touch callback left behind" true
    (Option.is_none host.Host.mem.No_mem.Memory.on_touch);
  ignore (Interp.run_main host);
  Alcotest.(check bool) "restored hook fires" true (!entered > 0)

(* Golden equivalence: the profiler's results over every registry
   program, digested.  Any change to the profiler or to the memory
   touch hook must leave every sample bit-identical. *)
let golden_digest = "cbd1076c9784c60973d5822a0ad2b092"

let registry_digest () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (e : No_workloads.Registry.entry) ->
      Native_offloader.Compiler.profile
        ~script:e.No_workloads.Registry.e_profile_script
        ~files:e.No_workloads.Registry.e_files
        (e.No_workloads.Registry.e_build ())
      |> List.sort compare
      |> List.iter (fun (s : Profiler.sample) ->
             Buffer.add_string buf
               (Printf.sprintf "%s %s %h %d %d %d\n" s.Profiler.s_name
                  s.Profiler.s_in_func s.Profiler.s_time
                  s.Profiler.s_invocations s.Profiler.s_iterations
                  s.Profiler.s_mem_bytes)))
    No_workloads.Registry.spec;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden_registry () =
  Alcotest.(check string) "registry profile digest" golden_digest
    (registry_digest ())

let tests =
  [
    Alcotest.test_case "counts" `Quick test_counts;
    Alcotest.test_case "inclusive times" `Quick test_inclusive_times;
    Alcotest.test_case "memory footprint" `Quick test_memory_footprint;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "detach restores hooks" `Quick
      test_detach_restores_hooks;
    Alcotest.test_case "golden registry digest" `Slow test_golden_registry;
  ]
