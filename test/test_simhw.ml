(* Tests for the simulated hardware substrate: RNG, ground truth,
   machine execution, transfers, DVFS effects. *)

open Xpdl_simhw

let model = Testlib.model

let liu = lazy (model "liu_gpu_server")

(* ------------------------------------------------------------------ *)
(* RNG *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.)) "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:8 in
  let xs = List.init 10 (fun _ -> Rng.float a) in
  let ys = List.init 10 (fun _ -> Rng.float b) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_rng_range () =
  let r = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    if x < 0. || x >= 1. then Alcotest.failf "float out of range: %f" x;
    let i = Rng.int r 10 in
    if i < 0 || i >= 10 then Alcotest.failf "int out of range: %d" i
  done

let test_rng_gaussian_moments () =
  let r = Rng.create ~seed:2 in
  let n = 20000 in
  let xs = List.init n (fun _ -> Rng.gaussian r) in
  let mean = List.fold_left ( +. ) 0. xs /. float_of_int n in
  let var = List.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. xs /. float_of_int n in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "var ~ 1" true (Float.abs (var -. 1.) < 0.1)

let test_noise_factor_positive () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    if Rng.noise_factor r ~sigma:0.5 <= 0. then Alcotest.fail "noise factor must stay positive"
  done

let test_rng_split () =
  let r = Rng.create ~seed:4 in
  let a = Rng.split r "core0" and b = Rng.split r "core1" in
  Alcotest.(check bool) "independent streams" true (Rng.float a <> Rng.float b)

(* ------------------------------------------------------------------ *)
(* Ground truth *)

let test_truth_deterministic () =
  Alcotest.(check (float 0.)) "stable synthesis"
    (Truth.synthesized_base_energy "fadd")
    (Truth.synthesized_base_energy "fadd");
  Alcotest.(check bool) "distinct instructions" true
    (Truth.synthesized_base_energy "fadd" <> Truth.synthesized_base_energy "fmul")

let test_truth_range () =
  List.iter
    (fun name ->
      let e = Truth.synthesized_base_energy name in
      if e < 5e-12 || e > 80e-12 then Alcotest.failf "%s energy %g outside 5-80 pJ" name e)
    [ "fadd"; "fmul"; "mov"; "ld"; "st"; "nop"; "weird_op_17" ]

let test_truth_frequency_law () =
  let t = Truth.synthetic () in
  let e1 = Truth.energy t ~name:"fadd" ~hz:1e9 in
  let e2 = Truth.energy t ~name:"fadd" ~hz:2e9 in
  let e4 = Truth.energy t ~name:"fadd" ~hz:4e9 in
  Alcotest.(check bool) "monotone in f" true (e1 < e2 && e2 < e4);
  (* E(f) = E0(a + (1-a) (f/f0)^2) with f0=2GHz: E(2GHz) is the base *)
  let base = Hashtbl.find t.Truth.base_energy "fadd" in
  Alcotest.(check (float 1e-18)) "reference point" base e2

let test_truth_model_table_wins () =
  (* the divsd frequency table from Listing 14 is authoritative *)
  let isa_src =
    {|<instructions name="i">
        <inst name="divsd">
          <data frequency="2.8" frequency_unit="GHz" energy="18.625" energy_unit="nJ"/>
          <data frequency="3.4" frequency_unit="GHz" energy="21.023" energy_unit="nJ"/>
        </inst>
      </instructions>|}
  in
  let isa =
    List.hd (Xpdl_core.Power.of_element (Xpdl_core.Elaborate.of_string_exn isa_src)).pm_isas
  in
  let t = Truth.of_isa isa in
  Alcotest.(check (float 1e-12)) "table low end" 18.625e-9 (Truth.energy t ~name:"divsd" ~hz:2.8e9);
  Alcotest.(check (float 1e-12)) "table high end" 21.023e-9 (Truth.energy t ~name:"divsd" ~hz:3.4e9);
  let mid = Truth.energy t ~name:"divsd" ~hz:3.1e9 in
  Alcotest.(check bool) "interpolates" true (mid > 18.625e-9 && mid < 21.023e-9)

(* ------------------------------------------------------------------ *)
(* Machine *)

let test_machine_core_collection () =
  let m = Machine.create (Lazy.force liu) in
  (* 4 host cores + 2496 GPU cores, no power-domain selectors *)
  Alcotest.(check int) "core count" 2500 (Machine.core_count m)

let test_machine_static_power () =
  let m = Machine.create (Lazy.force liu) in
  (* Xeon 10 + DDR3_16G 4 + K20c 16 + gmem 8 + pcie 1.5 + SP cores 2496*0.01 *)
  Alcotest.(check bool) "positive" true (m.Machine.static_power > 30.);
  Alcotest.(check bool) "sane" true (m.Machine.static_power < 200.)

let test_run_deterministic () =
  let w = Kernels.axpy ~n:100_000 in
  let m1 = Machine.create ~seed:5 (Lazy.force liu) in
  let m2 = Machine.create ~seed:5 (Lazy.force liu) in
  let r1 = Machine.run m1 w and r2 = Machine.run m2 w in
  Alcotest.(check (float 0.)) "same elapsed" r1.Machine.elapsed r2.Machine.elapsed;
  Alcotest.(check (float 0.)) "same energy" r1.Machine.total_energy r2.Machine.total_energy

let test_run_scaling () =
  let m = Machine.create ~noise_sigma:0. (Lazy.force liu) in
  let small = Machine.run m (Kernels.axpy ~n:10_000) in
  let large = Machine.run m (Kernels.axpy ~n:100_000) in
  let ratio = large.Machine.elapsed /. small.Machine.elapsed in
  Alcotest.(check bool) "time scales ~10x" true (ratio > 8. && ratio < 12.);
  let eratio = large.Machine.dynamic_energy /. small.Machine.dynamic_energy in
  Alcotest.(check bool) "energy scales ~10x" true (eratio > 8. && eratio < 12.)

let test_run_parallel_speedup () =
  let m = Machine.create ~noise_sigma:0. (Lazy.force liu) in
  let w = Kernels.spmv_csr_cpu (Kernels.spmv ~rows:2000 ~density:0.05 ()) in
  let serial = Machine.run ~cores_used:1 m w in
  let quad = Machine.run ~cores_used:4 m w in
  let speedup = serial.Machine.elapsed /. quad.Machine.elapsed in
  Alcotest.(check bool) "amdahl speedup in (2,4)" true (speedup > 2. && speedup < 4.)

let test_energy_accounting_invariant () =
  let m = Machine.create ~noise_sigma:0. (Lazy.force liu) in
  let r = Machine.run m (Kernels.axpy ~n:50_000) in
  Alcotest.(check (float 1e-9)) "total = dynamic + static*t"
    (r.Machine.dynamic_energy +. (m.Machine.static_power *. r.Machine.elapsed))
    r.Machine.total_energy;
  Alcotest.(check (float 1e-6)) "avg power consistent"
    (r.Machine.total_energy /. r.Machine.elapsed)
    r.Machine.average_power

let test_dvfs_effect () =
  let m = Machine.create ~noise_sigma:0. (Lazy.force liu) in
  let w = Kernels.single_instruction ~name:"fadd" ~iterations:100_000 in
  let fast = Machine.run m w in
  Machine.set_frequency m 1e9;
  let slow = Machine.run m w in
  Alcotest.(check bool) "lower f is slower" true
    (slow.Machine.elapsed > fast.Machine.elapsed *. 1.5);
  Alcotest.(check bool) "lower f cuts dynamic energy" true
    (slow.Machine.dynamic_energy < fast.Machine.dynamic_energy)

let test_transfer_model () =
  let m = Machine.create ~noise_sigma:0. (Lazy.force liu) in
  let t1, e1 = Machine.transfer m ~link:"connection1" ~bytes:1_000_000 in
  let t2, e2 = Machine.transfer m ~link:"connection1" ~bytes:10_000_000 in
  Alcotest.(check bool) "time grows" true (t2 > t1);
  Alcotest.(check bool) "energy grows" true (e2 > e1);
  (* bandwidth term dominates for 10 MB over PCIe3: ~1.55 ms *)
  Alcotest.(check bool) "plausible PCIe time" true (t2 > 1e-3 && t2 < 3e-3)

let test_transfer_unknown_link () =
  let m = Machine.create (Lazy.force liu) in
  match Machine.transfer m ~link:"no_such_link" ~bytes:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown link must be rejected"

let test_run_unknown_core () =
  let m = Machine.create (Lazy.force liu) in
  match Machine.run ~core:"ghost_core" m (Kernels.axpy ~n:10) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown core must be rejected"

let test_idle_power_sampling () =
  let m = Machine.create (Lazy.force liu) in
  let p = Machine.sample_idle_power m ~duration:1.0 in
  Alcotest.(check bool) "near static power" true
    (Float.abs (p -. m.Machine.static_power) /. m.Machine.static_power < 0.2)

let test_set_frequency_scoped () =
  let m = Machine.create (Lazy.force liu) in
  (* only the GPU cores (paths contain gpu1) change *)
  Machine.set_frequency ~within:"gpu1" m 3.33e8;
  let host = Option.get (Machine.find_core m "core0") in
  Alcotest.(check (float 1.)) "host untouched" 2e9 host.Machine.hz;
  let gpu_core =
    Array.to_list m.Machine.cores
    |> List.find (fun (c : Machine.core) ->
           String.length c.Machine.core_ident > 4
           && String.sub c.Machine.core_ident 0 19 = "liu_gpu_server/gpu1")
  in
  Alcotest.(check (float 1.)) "gpu scoped" 3.33e8 gpu_core.Machine.hz

let test_transfer_deterministic () =
  let a = Machine.create ~seed:9 (Lazy.force liu) in
  let b = Machine.create ~seed:9 (Lazy.force liu) in
  Alcotest.(check (pair (float 0.) (float 0.))) "same observation"
    (Machine.transfer a ~link:"connection1" ~bytes:123_456)
    (Machine.transfer b ~link:"connection1" ~bytes:123_456)

(* ------------------------------------------------------------------ *)
(* Kernels *)

let test_spmv_nonzeros () =
  let m = Kernels.spmv ~rows:1000 ~density:0.01 () in
  Alcotest.(check int) "nnz" 10_000 (Kernels.nonzeros m);
  Alcotest.(check int) "flops" 20_000 (Kernels.spmv_flops m)

let test_spmv_density_validation () =
  (match Kernels.spmv ~rows:10 ~density:0. () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "density 0 rejected");
  match Kernels.spmv ~rows:10 ~density:1.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "density > 1 rejected"

let test_transfer_bytes_monotone () =
  let small = Kernels.spmv_transfer_bytes (Kernels.spmv ~rows:100 ~density:0.1 ()) in
  let large = Kernels.spmv_transfer_bytes (Kernels.spmv ~rows:1000 ~density:0.1 ()) in
  Alcotest.(check bool) "more rows, more bytes" true (large > small)

let test_repeat_workload () =
  let w = Kernels.axpy ~n:100 in
  let w3 = Kernels.repeat 3 w in
  let count name ws =
    Option.value ~default:0 (List.assoc_opt name ws.Machine.instructions)
  in
  Alcotest.(check int) "3x fmul" (3 * count "fmul" w) (count "fmul" w3);
  Alcotest.(check int) "3x memory" (3 * w.Machine.memory_accesses) w3.Machine.memory_accesses;
  Alcotest.(check bool) "repeat 1 is identity" true (Kernels.repeat 1 w == w)

(* property: run results are always physically sensible *)
let prop_run_positive =
  QCheck2.Test.make ~name:"runs yield positive time and energy" ~count:50
    QCheck2.Gen.(pair (1 -- 200_000) (1 -- 16))
    (fun (n, cores) ->
      let m = Machine.create (Lazy.force liu) in
      let r = Machine.run ~cores_used:cores m (Kernels.axpy ~n) in
      r.Machine.elapsed > 0. && r.Machine.dynamic_energy > 0.
      && r.Machine.total_energy >= r.Machine.dynamic_energy)

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "simhw"
    [
      ( "rng",
        [
          case "deterministic" test_rng_deterministic;
          case "seed sensitivity" test_rng_seed_sensitivity;
          case "ranges" test_rng_range;
          case "gaussian moments" test_rng_gaussian_moments;
          case "noise factor positive" test_noise_factor_positive;
          case "split streams" test_rng_split;
        ] );
      ( "truth",
        [
          case "deterministic synthesis" test_truth_deterministic;
          case "plausible pJ range" test_truth_range;
          case "frequency law" test_truth_frequency_law;
          case "model table authoritative" test_truth_model_table_wins;
        ] );
      ( "machine",
        [
          case "core collection" test_machine_core_collection;
          case "static power" test_machine_static_power;
          case "deterministic runs" test_run_deterministic;
          case "workload scaling" test_run_scaling;
          case "parallel speedup" test_run_parallel_speedup;
          case "energy accounting" test_energy_accounting_invariant;
          case "dvfs effect" test_dvfs_effect;
          case "transfer model" test_transfer_model;
          case "unknown link" test_transfer_unknown_link;
          case "unknown core" test_run_unknown_core;
          case "idle power meter" test_idle_power_sampling;
          case "scoped set_frequency" test_set_frequency_scoped;
          case "deterministic transfers" test_transfer_deterministic;
        ] );
      ( "kernels",
        [
          case "spmv shape" test_spmv_nonzeros;
          case "density validation" test_spmv_density_validation;
          case "transfer bytes" test_transfer_bytes_monotone;
          case "repeat" test_repeat_workload;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_run_positive ]);
    ]
