(* Tests for the energy library: hierarchical aggregation, power-domain
   state rules (Listing 12 semantics), PSM simulation, DVFS policies. *)

open Xpdl_core
open Xpdl_energy

let repo = Testlib.repo
let model = Testlib.model

let approx = Alcotest.float 1e-6

(* ------------------------------------------------------------------ *)
(* Aggregation (synthesized attributes) *)

let test_static_power_sum () =
  let src =
    {|<node id="n" static_power="5" static_power_unit="W">
        <cpu id="c" static_power="10" static_power_unit="W">
          <cache name="l" static_power="2" static_power_unit="W"/>
        </cpu>
        <memory id="m" type="DDR" static_power="4" static_power_unit="W"/>
      </node>|}
  in
  let m = Elaborate.of_string_exn src in
  Alcotest.check approx "5+10+2+4" 21. (Aggregate.static_power m)

let test_breakdown_table () =
  let m = model "liu_gpu_server" in
  let total, table = Aggregate.static_power_breakdown m in
  Alcotest.(check bool) "total positive" true (total > 0.);
  (* the root entry equals the total *)
  let root_entry = List.assoc "liu_gpu_server" (List.map (fun (p, v) -> (p, v)) (List.rev table)) in
  Alcotest.check (Alcotest.float 1e-9) "root = total" total root_entry

let test_breakdown_path_keys () =
  (* an unprefixed quantity group replicates its identified children
     verbatim: three <cpu id="c"/> replicas share the scope path "n/c".
     The breakdown table must still key every node uniquely and stably,
     disambiguating duplicates in document order with #k suffixes. *)
  let src =
    {|<node id="n">
        <group quantity="3">
          <cpu id="c" static_power="1" static_power_unit="W"/>
        </group>
      </node>|}
  in
  let m = Elaborate.of_string_exn src in
  let m, _ = Instantiate.run m in
  let total, table = Aggregate.static_power_breakdown m in
  Alcotest.check approx "total over replicas" 3. total;
  let keys = List.map fst table in
  (* identified nodes get unique keys; unnamed wrapper rows report under
     their nearest identified ancestor ("n") and may repeat *)
  let replica_keys = List.filter (fun k -> String.length k > 1 && String.sub k 0 3 = "n/c") keys in
  Alcotest.(check (list string))
    "replica keys distinct, document order"
    [ "n/c"; "n/c#2"; "n/c#3" ] replica_keys;
  List.iter
    (fun k -> Alcotest.check approx ("replica " ^ k) 1. (List.assoc k table))
    [ "n/c"; "n/c#2"; "n/c#3" ];
  (* stability: a second evaluation produces the same keys *)
  let _, table' = Aggregate.static_power_breakdown m in
  Alcotest.(check (list string)) "keys stable" keys (List.map fst table')

let test_core_count_rule () =
  Alcotest.(check int) "xeon 4" 4 (Aggregate.core_count (model "liu_gpu_server") - 2496);
  Alcotest.(check int) "cluster" (4 * ((2 * 8) + 2496 + 2880))
    (Aggregate.core_count (model "XScluster"))

let test_memory_rule () =
  let m = model "myriad_server" in
  let bytes = Aggregate.memory_bytes m in
  (* 16 GB host + 1 MB CMX + 32 kB LRAM + 64 MB DDR *)
  Alcotest.(check bool) "about 16 GB" true
    (bytes > 16. *. (1024. ** 3.) && bytes < 16.1 *. (1024. ** 3.))

let test_unmodeled_share () =
  let m = model "liu_gpu_server" in
  let modeled = Aggregate.static_power m in
  Alcotest.check approx "meter - modeled" 10. (Aggregate.unmodeled_share ~measured_total:(modeled +. 10.) m);
  Alcotest.check approx "never negative" 0. (Aggregate.unmodeled_share ~measured_total:(modeled -. 5.) m)

let test_static_energy () =
  let m = model "liu_gpu_server" in
  Alcotest.check (Alcotest.float 1e-6) "P*t"
    (Aggregate.static_power m *. 3.)
    (Aggregate.static_energy ~duration:3. m)

(* ------------------------------------------------------------------ *)
(* Power domains (Listing 12 semantics) *)

let myriad_domains () =
  let m = model "myriad_server" in
  match Domains.of_model m with
  | Some d -> d
  | None -> Alcotest.fail "myriad model must carry power domains"

let test_domains_initial_state () =
  let d = myriad_domains () in
  List.iter
    (fun (name, st) ->
      Alcotest.(check bool) (name ^ " starts on") true (st = Domains.On))
    (Domains.snapshot d)

let test_main_domain_protected () =
  let d = myriad_domains () in
  match Domains.switch_off d "main_pd" with
  | exception Domains.Switch_error _ -> ()
  | _ -> Alcotest.fail "main_pd has enableSwitchOff=false"

let test_cmx_condition_enforced () =
  let d = myriad_domains () in
  (* CMX cannot go down while Shaves are up *)
  (match Domains.switch_off d "CMX_pd" with
  | exception Domains.Switch_error _ -> ()
  | _ -> Alcotest.fail "CMX_pd requires Shave_pds off");
  (* switching 7 of 8 is not enough *)
  List.iter (fun i -> Domains.switch_off d (Fmt.str "Shave_pd%d" i)) [ 0; 1; 2; 3; 4; 5; 6 ];
  (match Domains.switch_off d "CMX_pd" with
  | exception Domains.Switch_error _ -> ()
  | _ -> Alcotest.fail "7/8 shaves off is not enough");
  (* all 8 off -> CMX may go down *)
  Domains.switch_off d "Shave_pd7";
  Domains.switch_off d "CMX_pd";
  Alcotest.(check bool) "CMX off" true (Domains.is_off d "CMX_pd")

let test_group_switch () =
  let d = myriad_domains () in
  Domains.switch_off_group d "Shave_pds";
  List.iter
    (fun i ->
      Alcotest.(check bool) (Fmt.str "shave %d off" i) true
        (Domains.is_off d (Fmt.str "Shave_pd%d" i)))
    [ 0; 1; 2; 3; 4; 5; 6; 7 ];
  Domains.switch_on_group d "Shave_pds";
  Alcotest.(check bool) "back on" false (Domains.is_off d "Shave_pd3")

let test_unknown_domain () =
  let d = myriad_domains () in
  match Domains.switch_off d "no_such_domain" with
  | exception Domains.Switch_error _ -> ()
  | _ -> Alcotest.fail "unknown domain must be rejected"

let test_idle_power_drops () =
  let d = myriad_domains () in
  let all_on = Domains.idle_power d in
  Domains.switch_off_group d "Shave_pds";
  let shaves_off = Domains.idle_power d in
  Domains.switch_off d "CMX_pd";
  let cmx_off = Domains.idle_power d in
  Alcotest.(check bool) "monotone savings" true (all_on > shaves_off && shaves_off > cmx_off);
  (* declared idle powers: 8 x 0.008 saved by shaves, then 0.012 by CMX *)
  Alcotest.check (Alcotest.float 1e-9) "shave saving" (8. *. 0.008) (all_on -. shaves_off);
  Alcotest.check (Alcotest.float 1e-9) "cmx saving" 0.012 (shaves_off -. cmx_off)

(* ------------------------------------------------------------------ *)
(* PSM simulation *)

let xeon_psm () =
  let pm = Power.of_element (model "liu_gpu_server") in
  List.find (fun sm -> sm.Power.sm_name = "E5_2630L_psm") pm.Power.pm_machines

let listing13_psm () =
  match Xpdl_repo.Repo.find (Lazy.force repo) "power_state_machine1" with
  | Some e -> List.hd (Power.of_element e).Power.pm_machines
  | None -> Alcotest.fail "listing 13 descriptor"

let test_psm_dwell_energy () =
  let psm = Psm.create ~initial:"P1" (xeon_psm ()) in
  Psm.dwell psm ~duration:2.0;
  (* P1 = 12 W *)
  Alcotest.check approx "12W * 2s" 24. (Psm.consumed psm);
  Alcotest.check approx "clock" 2.0 (Psm.clock psm)

let test_psm_switch_costs () =
  let psm = Psm.create ~initial:"P1" (xeon_psm ()) in
  Psm.switch_to psm "P3";
  (* direct transition P1->P3: 18 us, 15 uJ *)
  Alcotest.check (Alcotest.float 1e-9) "switch time" 18e-6 (Psm.clock psm);
  Alcotest.check (Alcotest.float 1e-12) "switch energy" 15e-6 (Psm.consumed psm);
  Alcotest.(check int) "one switch" 1 (Psm.switch_count psm);
  Alcotest.(check string) "state" "P3" (Psm.state psm)

let test_psm_multi_hop_routing () =
  (* Listing 13 has no direct P1->P2; the cheapest modeled path is
     P1->P3->P2 costing 2+1 us and 5+2 nJ *)
  let psm = Psm.create ~initial:"P1" (listing13_psm ()) in
  Psm.switch_to psm "P2";
  Alcotest.check (Alcotest.float 1e-12) "routed time" 3e-6 (Psm.clock psm);
  Alcotest.check (Alcotest.float 1e-15) "routed energy" 7e-9 (Psm.consumed psm);
  Alcotest.(check int) "two hops" 2 (Psm.switch_count psm);
  Alcotest.(check (list string)) "history states" [ "P1"; "P3"; "P2" ]
    (List.map snd (Psm.history psm))

let test_psm_execute () =
  let psm = Psm.create ~initial:"P2" (xeon_psm ()) in
  (* P2 = 1.6 GHz, 16 W: 1.6e9 cycles take 1 s *)
  let dt = Psm.execute psm ~cycles:1.6e9 () in
  Alcotest.check approx "1 second" 1.0 dt;
  Alcotest.check approx "16 J" 16. (Psm.consumed psm)

let test_psm_cannot_execute_in_sleep () =
  let psm = Psm.create ~initial:"C1" (xeon_psm ()) in
  match Psm.execute psm ~cycles:1e9 () with
  | exception Psm.Psm_error _ -> ()
  | _ -> Alcotest.fail "C1 has frequency 0"

let test_psm_unknown_state () =
  let psm = Psm.create (xeon_psm ()) in
  match Psm.switch_to psm "P9" with
  | exception Psm.Psm_error _ -> ()
  | _ -> Alcotest.fail "unknown state must be rejected"

let test_switch_cost_symmetric_query () =
  let sm = xeon_psm () in
  (match Psm.switch_cost sm ~from_state:"P1" ~to_state:"P1" with
  | Some (t, e) ->
      Alcotest.check approx "self time" 0. t;
      Alcotest.check approx "self energy" 0. e
  | None -> Alcotest.fail "self transition");
  match Psm.switch_cost sm ~from_state:"C1" ~to_state:"P3" with
  | Some (t, _) -> Alcotest.(check bool) "routed C1->P1->P3" true (t > 60e-6)
  | None -> Alcotest.fail "C1 -> P3 must be routable"

(* ------------------------------------------------------------------ *)
(* DVFS policies *)

let test_dvfs_policies_feasible () =
  let sm = xeon_psm () in
  let cmp = Dvfs.compare_policies sm ~start:"P3" ~cycles:1.2e9 ~deadline:1.0 in
  Alcotest.(check bool) "some plan" true (cmp.Dvfs.plans <> []);
  List.iter
    (fun (p : Dvfs.plan) ->
      Alcotest.(check bool) (p.Dvfs.policy ^ " meets deadline") true
        (p.Dvfs.total_time <= 1.0 +. 1e-9);
      Alcotest.(check bool) (p.Dvfs.policy ^ " positive energy") true (p.Dvfs.total_energy > 0.))
    cmp.Dvfs.plans

let test_dvfs_optimal_wins () =
  let sm = xeon_psm () in
  List.iter
    (fun (cycles, deadline) ->
      let cmp = Dvfs.compare_policies sm ~start:"P3" ~cycles ~deadline in
      match cmp.Dvfs.plans with
      | best :: rest ->
          Alcotest.(check string) "optimal is best" "optimal" best.Dvfs.policy;
          List.iter
            (fun p ->
              Alcotest.(check bool) "optimal <= others" true
                (best.Dvfs.total_energy <= p.Dvfs.total_energy +. 1e-9))
            rest
      | [] -> Alcotest.fail "no feasible plan")
    [ (1.2e9, 1.0); (2.0e9, 1.2); (1.0e9, 2.0) ]

let test_dvfs_infeasible_deadline () =
  let sm = xeon_psm () in
  (* 2 GHz max: 4e9 cycles cannot fit in 1 s *)
  Alcotest.(check bool) "race fails" true
    (match Dvfs.race_to_idle sm ~start:"P3" ~cycles:4e9 ~deadline:1.0 with
    | Some p -> not p.Dvfs.feasible
    | None -> true)

let test_dvfs_tight_deadline_forces_max () =
  let sm = xeon_psm () in
  (* deadline exactly at max-speed runtime (+switching slack) *)
  let cycles = 1.9e9 in
  let deadline = (cycles /. 2.0e9) +. 1e-3 in
  match Dvfs.optimal sm ~start:"P3" ~cycles ~deadline with
  | Some p ->
      Alcotest.(check bool) "feasible" true p.Dvfs.feasible;
      (* dominated by P3 residency *)
      let p3_time =
        List.fold_left
          (fun acc s -> if s.Dvfs.step_state = "P3" then acc +. s.Dvfs.step_duration else acc)
          0. p.Dvfs.steps
      in
      Alcotest.(check bool) "mostly P3" true (p3_time > 0.9 *. (cycles /. 2.0e9))
  | None -> Alcotest.fail "must be feasible"

let test_dvfs_loose_deadline_prefers_slow () =
  let sm = xeon_psm () in
  (* with lots of slack, pacing at P1 (12 W) beats racing at P3 (22 W) *)
  let pace = Option.get (Dvfs.pace sm ~start:"P1" ~cycles:1.2e9 ~deadline:10.) in
  let race = Option.get (Dvfs.race_to_idle sm ~start:"P1" ~cycles:1.2e9 ~deadline:10.) in
  Alcotest.(check bool) "pace beats race here" true
    (pace.Dvfs.total_energy < race.Dvfs.total_energy);
  let opt = Option.get (Dvfs.optimal sm ~start:"P1" ~cycles:1.2e9 ~deadline:10.) in
  Alcotest.(check bool) "optimal <= pace" true (opt.Dvfs.total_energy <= pace.Dvfs.total_energy +. 1e-9)

let test_dvfs_energy_decomposition () =
  (* plan energy equals sum over steps of state power x duration plus
     switching energies *)
  let sm = xeon_psm () in
  let p = Option.get (Dvfs.optimal sm ~start:"P3" ~cycles:1.5e9 ~deadline:1.5) in
  let residency =
    List.fold_left
      (fun acc s ->
        let st = Option.get (Power.find_state sm s.Dvfs.step_state) in
        acc +. (st.Power.ps_power *. s.Dvfs.step_duration))
      0. p.Dvfs.steps
  in
  (* switching overhead is small but non-negative *)
  Alcotest.(check bool) "residency <= total" true (residency <= p.Dvfs.total_energy +. 1e-9);
  Alcotest.(check bool) "overhead < 1%" true
    (p.Dvfs.total_energy -. residency < 0.01 *. p.Dvfs.total_energy)

(* property: optimal never loses to the naive policies *)
let prop_optimal_dominates =
  QCheck2.Test.make ~name:"optimal dominates race and pace" ~count:30
    QCheck2.Gen.(pair (float_range 0.5 3.0) (float_range 0.8 4.0))
    (fun (gcycles, deadline) ->
      let sm = xeon_psm () in
      let cycles = gcycles *. 1e9 in
      let cmp = Dvfs.compare_policies sm ~start:"P3" ~cycles ~deadline in
      match cmp.Dvfs.plans with
      | [] -> true (* infeasible for everyone *)
      | best :: _ -> best.Dvfs.policy = "optimal" || best.Dvfs.total_energy > 0.)

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "energy"
    [
      ( "aggregate",
        [
          case "static power sum" test_static_power_sum;
          case "breakdown table" test_breakdown_table;
          case "breakdown path keys" test_breakdown_path_keys;
          case "core count" test_core_count_rule;
          case "memory bytes" test_memory_rule;
          case "unmodeled share" test_unmodeled_share;
          case "static energy" test_static_energy;
        ] );
      ( "domains",
        [
          case "initial state" test_domains_initial_state;
          case "main domain protected" test_main_domain_protected;
          case "CMX switchoff condition" test_cmx_condition_enforced;
          case "group switching" test_group_switch;
          case "unknown domain" test_unknown_domain;
          case "idle power drops" test_idle_power_drops;
        ] );
      ( "psm",
        [
          case "dwell energy" test_psm_dwell_energy;
          case "switch costs" test_psm_switch_costs;
          case "multi-hop routing" test_psm_multi_hop_routing;
          case "execute" test_psm_execute;
          case "no execute in sleep" test_psm_cannot_execute_in_sleep;
          case "unknown state" test_psm_unknown_state;
          case "switch cost queries" test_switch_cost_symmetric_query;
        ] );
      ( "dvfs",
        [
          case "policies feasible" test_dvfs_policies_feasible;
          case "optimal wins" test_dvfs_optimal_wins;
          case "infeasible deadline" test_dvfs_infeasible_deadline;
          case "tight deadline" test_dvfs_tight_deadline_forces_max;
          case "loose deadline" test_dvfs_loose_deadline_prefers_slow;
          case "energy decomposition" test_dvfs_energy_decomposition;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_optimal_dominates ]);
    ]
