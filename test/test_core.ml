(* Tests for the XPDL core language: schema, elaboration, inheritance,
   instantiation (groups/params/constraints), validation, power views. *)

open Xpdl_core

let elab s = Elaborate.of_string_exn ~lenient:true s

let elab_with_diags s =
  match Elaborate.of_string ~lenient:true s with
  | Ok (e, diags) -> (e, diags)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let has_error diags = List.exists Diagnostic.is_error diags
let approx = Alcotest.float 1e-6

let quantity e key =
  match Model.attr_quantity e key with
  | Some q -> Xpdl_units.Units.value q
  | None -> Alcotest.failf "no quantity attribute %s" key

(* ------------------------------------------------------------------ *)
(* Schema *)

let test_kind_roundtrip () =
  List.iter
    (fun tag ->
      Alcotest.(check string) tag tag (Schema.tag_of_kind (Schema.kind_of_tag tag)))
    [ "system"; "cluster"; "node"; "socket"; "cpu"; "core"; "cache"; "memory"; "device";
      "interconnect"; "channel"; "group"; "software"; "hostOS"; "installed"; "power_model";
      "power_domains"; "power_domain"; "power_state_machine"; "power_state"; "transition";
      "instructions"; "inst"; "data"; "microbenchmarks"; "microbenchmark"; "const"; "param";
      "constraint"; "properties"; "property"; "weird_extension_tag" ]

let test_gpu_maps_to_device () =
  Alcotest.(check bool) "gpu tag" true (Schema.kind_of_tag "gpu" = Schema.Device)

let test_attr_spec_lookup () =
  Alcotest.(check bool) "cache size" true (Schema.attr_spec Schema.Cache "size" <> None);
  Alcotest.(check bool) "cache bogus" true (Schema.attr_spec Schema.Cache "bogus" = None);
  Alcotest.(check bool) "common name everywhere" true (Schema.attr_spec Schema.Memory "name" <> None)

let test_child_allowed () =
  Alcotest.(check bool) "core in cpu" true (Schema.child_allowed ~parent:Schema.Cpu ~child:Schema.Core);
  Alcotest.(check bool) "cpu in cache" false
    (Schema.child_allowed ~parent:Schema.Cache ~child:Schema.Cpu);
  Alcotest.(check bool) "extension allowed" true
    (Schema.child_allowed ~parent:Schema.Cache ~child:(Schema.Other "vendor_ext"))

let test_is_hardware () =
  Alcotest.(check bool) "cpu" true (Schema.is_hardware Schema.Cpu);
  Alcotest.(check bool) "param" false (Schema.is_hardware Schema.Param);
  Alcotest.(check bool) "software" false (Schema.is_hardware Schema.Software)

(* ------------------------------------------------------------------ *)
(* Elaboration *)

let test_elaborate_structural_attrs () =
  let e = elab {|<cpu name="X" type="Y" extends="A B" id="z"/>|} in
  Alcotest.(check (option string)) "name" (Some "X") e.Model.name;
  Alcotest.(check (option string)) "id" (Some "z") e.Model.id;
  Alcotest.(check (option string)) "type" (Some "Y") e.Model.type_ref;
  Alcotest.(check (list string)) "extends" [ "A"; "B" ] e.Model.extends

let test_elaborate_quantity_pairing () =
  let e = elab {|<core frequency="2" frequency_unit="GHz"/>|} in
  Alcotest.check approx "2 GHz normalized" 2e9 (quantity e "frequency");
  let c = elab {|<cache name="L1" size="32" unit="KiB"/>|} in
  Alcotest.check approx "size via bare unit" (32. *. 1024.) (quantity c "size")

let test_elaborate_param_unit () =
  (* param metrics use the bare [unit] companion (Listing 9) *)
  let p = elab {|<param name="cfrq" frequency="706" unit="MHz"/>|} in
  Alcotest.check approx "param frequency" 7.06e8 (quantity p "frequency");
  let g = elab {|<param name="gmsz" size="5" unit="GB"/>|} in
  Alcotest.check approx "param size" (5. *. (1024. ** 3.)) (quantity g "size")

let test_elaborate_unknown_placeholder () =
  let e = elab {|<inst name="fmul" energy="?" energy_unit="pJ"/>|} in
  Alcotest.(check bool) "unknown" true (Model.attr_is_unknown e "energy")

let test_elaborate_typed_attrs () =
  let e = elab {|<cache name="c" sets="2" replacement="LRU" shared="true"/>|} in
  Alcotest.(check (option int)) "sets" (Some 2) (Model.attr_int e "sets");
  Alcotest.(check (option string)) "replacement" (Some "LRU") (Model.attr_string e "replacement");
  Alcotest.(check (option bool)) "shared" (Some true) (Model.attr_bool e "shared")

let test_elaborate_bad_enum () =
  let _, diags = elab_with_diags {|<cache name="c" replacement="MRU"/>|} in
  Alcotest.(check bool) "bad enum flagged" true (has_error diags)

let test_elaborate_bad_int () =
  let _, diags = elab_with_diags {|<cache name="c" sets="two"/>|} in
  Alcotest.(check bool) "bad int flagged" true (has_error diags)

let test_elaborate_bad_unit_dimension () =
  let _, diags = elab_with_diags {|<cache name="c" size="32" unit="GHz"/>|} in
  Alcotest.(check bool) "GHz is not a size" true (has_error diags)

let test_elaborate_unknown_attr_warns () =
  let _, diags = elab_with_diags {|<cache name="c" colour="red"/>|} in
  Alcotest.(check bool) "warns" true (List.length diags > 0);
  Alcotest.(check bool) "but not an error" false (has_error diags)

let test_elaborate_unknown_tag_preserved () =
  let e, diags = elab_with_diags {|<cpu name="x"><thermal_sensor id="t1"/></cpu>|} in
  Alcotest.(check bool) "warns" true (List.length diags > 0);
  Alcotest.(check bool) "no error" false (has_error diags);
  match e.Model.children with
  | [ c ] -> Alcotest.(check bool) "kept as Other" true (c.Model.kind = Schema.Other "thermal_sensor")
  | _ -> Alcotest.fail "extension child must be preserved"

let test_elaborate_containment () =
  let _, diags = elab_with_diags {|<cache name="c"><cpu name="inner"/></cache>|} in
  Alcotest.(check bool) "cpu inside cache is an error" true (has_error diags)

let test_elaborate_expr_attr () =
  let e = elab {|<group quantity="num_SM" prefix="SM"/>|} in
  match Model.attr e "quantity" with
  | Some (Model.Expr (Xpdl_expr.Expr.Ident "num_SM", _)) -> ()
  | _ -> Alcotest.fail "quantity must elaborate to an identifier expression"

let test_elaborate_metric_param_reference () =
  (* frequency="cfrq": a parameter standing in for a quantity (Listing 8) *)
  let e = elab {|<core frequency="cfrq"/>|} in
  match Model.attr e "frequency" with
  | Some (Model.Expr (Xpdl_expr.Expr.Ident "cfrq", _)) -> ()
  | _ -> Alcotest.fail "frequency param reference must become an expression"

let test_to_xml_roundtrip () =
  let src = {|<cpu name="X"><core frequency="2" frequency_unit="GHz"/><cache name="L1" size="32" unit="KiB"/></cpu>|} in
  let e = elab src in
  let xml = Model.to_xml e in
  let e2, diags = Elaborate.of_xml xml in
  Alcotest.(check bool) "no diags" false (has_error diags);
  Alcotest.check approx "frequency preserved" 2e9
    (quantity (List.hd e2.Model.children) "frequency");
  Alcotest.(check (option string)) "name preserved" (Some "X") e2.Model.name

(* ------------------------------------------------------------------ *)
(* Inheritance *)

let lookup_of_list l name = List.assoc_opt name l

let test_extends_merge () =
  let base = elab {|<device name="Base" role="worker" compute_capability="3.0"><const name="k" value="1"/></device>|} in
  let sub = elab {|<device name="Sub" extends="Base" compute_capability="3.5"/>|} in
  let r = Inheritance.resolve (lookup_of_list [ ("Base", base) ]) sub in
  Alcotest.(check (option (float 1e-9))) "override wins" (Some 3.5) (Model.attr_float r "compute_capability");
  Alcotest.(check (option string)) "inherited attr" (Some "worker") (Model.attr_string r "role");
  Alcotest.(check int) "inherited child" 1 (List.length r.Model.children);
  Alcotest.(check (list string)) "extends consumed" [] r.Model.extends

let test_keyed_child_override () =
  (* K20c's <param name="num_SM" value="13"/> refines Kepler's declaration *)
  let base = elab {|<device name="Fam"><param name="num_SM" type="integer"/><param name="other" type="integer"/></device>|} in
  let sub = elab {|<device name="K" extends="Fam"><param name="num_SM" value="13"/></device>|} in
  let r = Inheritance.resolve (lookup_of_list [ ("Fam", base) ]) sub in
  Alcotest.(check int) "no duplicate param" 2 (List.length r.Model.children);
  let p = Option.get (Model.find_by_name "num_SM" r) in
  Alcotest.(check bool) "value set" true (Model.attr p "value" <> None);
  Alcotest.(check (option string)) "declared type kept" (Some "integer") p.Model.type_ref

let test_multiple_inheritance_leftmost_wins () =
  let a = elab {|<device name="A" vendor="Alpha" role="worker"/>|} in
  let b = elab {|<device name="B" vendor="Beta" compute_capability="9"/>|} in
  let sub = elab {|<device name="S" extends="A B"/>|} in
  let r = Inheritance.resolve (lookup_of_list [ ("A", a); ("B", b) ]) sub in
  Alcotest.(check (option string)) "leftmost vendor" (Some "Alpha") (Model.attr_string r "vendor");
  Alcotest.(check (option string)) "role from A" (Some "worker") (Model.attr_string r "role");
  Alcotest.(check (option (float 1e-9))) "cc from B" (Some 9.) (Model.attr_float r "compute_capability")

let test_type_instantiation_keeps_identity () =
  let meta = elab {|<cpu name="XeonT" frequency="2" frequency_unit="GHz"/>|} in
  let inst = elab {|<cpu id="cpu0" type="XeonT"/>|} in
  let r = Inheritance.resolve (lookup_of_list [ ("XeonT", meta) ]) inst in
  Alcotest.(check (option string)) "id kept" (Some "cpu0") r.Model.id;
  Alcotest.(check (option string)) "type kept" (Some "XeonT") r.Model.type_ref;
  Alcotest.check approx "content merged" 2e9 (quantity r "frequency")

let test_reference_adopts_name () =
  let isa = elab {|<instructions name="isa1"><inst name="add"/></instructions>|} in
  let ref_el = elab {|<instructions type="isa1"/>|} in
  let r = Inheritance.resolve (lookup_of_list [ ("isa1", isa) ]) ref_el in
  Alcotest.(check (option string)) "adopted name" (Some "isa1") r.Model.name;
  Alcotest.(check int) "content" 1 (List.length r.Model.children)

let test_no_double_merge () =
  (* a chain A -> B -> C must not duplicate unkeyed children *)
  let c = elab {|<device name="C"><group quantity="2" prefix="u"><core/></group></device>|} in
  let b = elab {|<device name="B" extends="C"/>|} in
  let a = elab {|<device id="a1" type="B"/>|} in
  let r = Inheritance.resolve (lookup_of_list [ ("B", b); ("C", c) ]) a in
  Alcotest.(check int) "exactly one group child" 1 (List.length r.Model.children)

let test_unresolved_reference () =
  let sub = elab {|<device name="S" extends="Ghost"/>|} in
  (match Inheritance.resolve (lookup_of_list []) sub with
  | exception Inheritance.Unresolved { missing; _ } ->
      Alcotest.(check string) "missing name" "Ghost" missing
  | _ -> Alcotest.fail "must raise Unresolved");
  let _, diags = Inheritance.resolve_lenient (lookup_of_list []) sub in
  Alcotest.(check bool) "lenient reports" true (has_error diags)

let test_inheritance_cycle () =
  let a = elab {|<device name="A" extends="B"/>|} in
  let b = elab {|<device name="B" extends="A"/>|} in
  let lookup = lookup_of_list [ ("A", a); ("B", b) ] in
  (match Inheritance.resolve lookup a with
  | exception Inheritance.Cycle _ -> ()
  | _ -> Alcotest.fail "must raise Cycle");
  let _, diags = Inheritance.resolve_lenient lookup a in
  Alcotest.(check bool) "lenient reports cycle" true (has_error diags)

let test_memory_type_is_label () =
  let m = elab {|<memory name="DDR3_16G" type="DDR3" size="16" unit="GB"/>|} in
  let r = Inheritance.resolve (lookup_of_list []) m in
  Alcotest.(check (option string)) "label kept" (Some "DDR3") r.Model.type_ref

let test_power_domain_selector_not_resolved () =
  let pd = elab {|<power_domains name="pds"><power_domain name="d"><core type="Leon"/></power_domain></power_domains>|} in
  (* no "Leon" in the lookup — must NOT raise *)
  let r = Inheritance.resolve (lookup_of_list []) pd in
  Alcotest.(check int) "structure intact" 1 (List.length r.Model.children)

(* ------------------------------------------------------------------ *)
(* Instantiation: groups, params, constraints *)

let listing1 =
  {|<cpu name="Intel_Xeon_E5_2630L">
      <group prefix="core_group" quantity="2">
        <group prefix="core" quantity="2">
          <core frequency="2" frequency_unit="GHz" />
          <cache name="L1" size="32" unit="KiB" />
        </group>
        <cache name="L2" size="256" unit="KiB" />
      </group>
      <cache name="L3" size="15" unit="MiB" />
    </cpu>|}

let test_group_expansion_counts () =
  let expanded, diags = Instantiate.run (elab listing1) in
  Alcotest.(check bool) "no errors" false (has_error diags);
  Alcotest.(check int) "4 cores" 4 (List.length (Model.elements_of_kind Schema.Core expanded));
  Alcotest.(check int) "4 L1" 4
    (List.length
       (List.filter (fun (c : Model.element) -> c.Model.name = Some "L1")
          (Model.elements_of_kind Schema.Cache expanded)));
  Alcotest.(check int) "2 L2" 2
    (List.length
       (List.filter (fun (c : Model.element) -> c.Model.name = Some "L2")
          (Model.elements_of_kind Schema.Cache expanded)))

let test_group_member_ids () =
  let expanded, _ = Instantiate.run (elab listing1) in
  let core_ids =
    List.filter_map (fun (c : Model.element) -> c.Model.id)
      (Model.elements_of_kind Schema.Core expanded)
  in
  Alcotest.(check (list string)) "prefix ids" [ "core0"; "core1"; "core0"; "core1" ] core_ids;
  let scope_ids =
    List.filter_map (fun (g : Model.element) -> g.Model.id)
      (Model.children_of_kind expanded Schema.Group)
  in
  Alcotest.(check (list string)) "outer scopes" [ "core_group0"; "core_group1" ] scope_ids

let test_scoping_preserved () =
  (* L2 must remain a sibling of the inner core group: shared by 2 cores *)
  let expanded, _ = Instantiate.run (elab listing1) in
  let outer0 = List.hd (Model.children_of_kind expanded Schema.Group) in
  Alcotest.(check int) "L2 in scope" 1 (List.length (Model.children_of_kind outer0 Schema.Cache));
  Alcotest.(check int) "2 core scopes" 2 (List.length (Model.children_of_kind outer0 Schema.Group))

let test_quantity_param_binding () =
  let src =
    {|<device name="G">
        <param name="n" value="3"/>
        <group prefix="sm" quantity="n"><core/></group>
      </device>|}
  in
  let expanded, diags = Instantiate.run (elab src) in
  Alcotest.(check bool) "no errors" false (has_error diags);
  Alcotest.(check int) "3 cores" 3 (List.length (Model.elements_of_kind Schema.Core expanded))

let test_quantity_external_config () =
  let src = {|<device name="G"><param name="n"/><group prefix="sm" quantity="n"><core/></group></device>|} in
  let expanded, diags =
    Instantiate.run ~env:[ ("n", Xpdl_expr.Expr.Num 5.) ] (elab src)
  in
  Alcotest.(check bool) "no errors" false (has_error diags);
  Alcotest.(check int) "5 cores" 5 (List.length (Model.elements_of_kind Schema.Core expanded))

let test_unbound_quantity_diagnosed () =
  let src = {|<device name="G"><group prefix="sm" quantity="n"><core/></group></device>|} in
  let _, diags = Instantiate.run (elab src) in
  Alcotest.(check bool) "error reported" true (has_error diags)

let test_param_substitution_into_quantity_attr () =
  let src =
    {|<device name="G">
        <const name="base" value="16384"/>
        <param name="L1size" value="base * 2"/>
        <cache name="L1" size="L1size"/>
      </device>|}
  in
  let expanded, diags = Instantiate.run (elab src) in
  Alcotest.(check bool) "no errors" false (has_error diags);
  let cache = Option.get (Model.find_by_name "L1" expanded) in
  Alcotest.check approx "size substituted" 32768. (quantity cache "size")

let test_constraint_satisfied () =
  let src =
    {|<device name="G">
        <const name="total" size="64" unit="KB"/>
        <param name="a" size="16" unit="KB"/>
        <param name="b" size="48" unit="KB"/>
        <constraints><constraint expr="a + b == total"/></constraints>
      </device>|}
  in
  let _, diags = Instantiate.run (elab src) in
  Alcotest.(check bool) "holds" false (has_error diags)

let test_constraint_violated () =
  let src =
    {|<device name="G">
        <const name="total" size="64" unit="KB"/>
        <param name="a" size="32" unit="KB"/>
        <param name="b" size="48" unit="KB"/>
        <constraints><constraint expr="a + b == total"/></constraints>
      </device>|}
  in
  let _, diags = Instantiate.run (elab src) in
  Alcotest.(check bool) "violation reported" true (has_error diags)

let test_range_check () =
  let ok = {|<device name="G"><param name="p" range="16, 32, 48" unit="KB" size="32" Xunit="KB"/></device>|} in
  ignore ok;
  let in_range =
    {|<device name="G"><param name="p" range="16, 32, 48" unit="KB" size="32" /></device>|}
  in
  let _, diags = Instantiate.run (elab in_range) in
  Alcotest.(check bool) "32 in range" false (has_error diags);
  let out_of_range =
    {|<device name="G"><param name="p" range="16, 32, 48" unit="KB" size="24" /></device>|}
  in
  let _, diags = Instantiate.run (elab out_of_range) in
  Alcotest.(check bool) "24 not in range" true (has_error diags)

let test_unbound_params_listed () =
  let src = {|<device name="G"><param name="x"/><param name="y" value="1"/></device>|} in
  Alcotest.(check (list string)) "only x unbound" [ "x" ] (Instantiate.unbound_params (elab src))

let test_group_without_prefix_suffixes_names () =
  (* Listing 12: 8 copies of Shave_pd become Shave_pd0..7 under a named wrapper *)
  let src =
    {|<power_domains name="pds">
        <group name="Shave_pds" quantity="3">
          <power_domain name="Shave_pd"><core type="Shave"/></power_domain>
        </group>
      </power_domains>|}
  in
  let expanded, diags = Instantiate.run (elab src) in
  Alcotest.(check bool) "no errors" false (has_error diags);
  let wrapper = List.hd (Model.children_of_kind expanded Schema.Group) in
  Alcotest.(check (option string)) "wrapper named" (Some "Shave_pds") wrapper.Model.name;
  let names =
    List.filter_map (fun (d : Model.element) -> d.Model.name)
      (Model.elements_of_kind Schema.Power_domain expanded)
  in
  Alcotest.(check (list string)) "suffixed" [ "Shave_pd0"; "Shave_pd1"; "Shave_pd2" ] names

let test_zero_quantity_group () =
  let src = {|<cpu name="c"><group prefix="x" quantity="0"><core/></group></cpu>|} in
  let expanded, diags = Instantiate.run (elab src) in
  Alcotest.(check bool) "no errors" false (has_error diags);
  Alcotest.(check int) "no cores" 0 (List.length (Model.elements_of_kind Schema.Core expanded))

let test_negative_quantity_diagnosed () =
  let src = {|<cpu name="c"><group prefix="x" quantity="0 - 2"><core/></group></cpu>|} in
  let _, diags = Instantiate.run (elab src) in
  Alcotest.(check bool) "negative rejected" true (has_error diags)

let test_param_shadowing () =
  (* an inner param declaration shadows the outer scope's *)
  let src =
    {|<device name="G">
        <param name="n" value="2"/>
        <group prefix="outer" quantity="n"><core/></group>
        <cpu name="Inner">
          <param name="n" value="3"/>
          <group prefix="inner" quantity="n"><core/></group>
        </cpu>
      </device>|}
  in
  let expanded, diags = Instantiate.run (elab src) in
  Alcotest.(check bool) "no errors" false (has_error diags);
  let inner = Option.get (Model.find_by_name "Inner" expanded) in
  Alcotest.(check int) "inner sees 3" 3 (List.length (Model.elements_of_kind Schema.Core inner));
  Alcotest.(check int) "total 2 + 3" 5 (List.length (Model.elements_of_kind Schema.Core expanded))

let test_external_config_overrides_default () =
  (* deployment configuration wins over the param's declared value *)
  let src = {|<device name="G"><param name="n" value="2"/><group prefix="c" quantity="n"><core/></group></device>|} in
  let expanded, diags = Instantiate.run ~env:[ ("n", Xpdl_expr.Expr.Num 6.) ] (elab src) in
  Alcotest.(check bool) "no errors" false (has_error diags);
  Alcotest.(check int) "override wins" 6 (List.length (Model.elements_of_kind Schema.Core expanded))

let test_group_multiple_unidentified_children () =
  (* with several unidentified children, none silently steals the member
     id; the scope wrapper still carries it *)
  let src = {|<cpu name="c"><group prefix="p" quantity="2"><core/><core/></group></cpu>|} in
  let expanded, _ = Instantiate.run (elab src) in
  let cores = Model.elements_of_kind Schema.Core expanded in
  Alcotest.(check int) "4 cores" 4 (List.length cores);
  Alcotest.(check bool) "cores stay anonymous" true
    (List.for_all (fun (c : Model.element) -> c.Model.id = None) cores);
  let scopes = Model.children_of_kind expanded Schema.Group in
  Alcotest.(check (list string)) "scopes identified" [ "p0"; "p1" ]
    (List.filter_map (fun (g : Model.element) -> g.Model.id) scopes)

let test_nested_quantity_product () =
  let src =
    {|<device name="G">
        <param name="a" value="3"/><param name="b" value="4"/>
        <group prefix="x" quantity="a"><group prefix="y" quantity="b"><core/></group></group>
      </device>|}
  in
  let expanded, diags = Instantiate.run (elab src) in
  Alcotest.(check bool) "no errors" false (has_error diags);
  Alcotest.(check int) "3 * 4" 12 (List.length (Model.elements_of_kind Schema.Core expanded))

(* ------------------------------------------------------------------ *)
(* Validation *)

let test_validate_interconnect_endpoints () =
  let good =
    elab
      {|<system id="s"><cpu id="c"/><device id="d"/>
          <interconnects><interconnect id="l" type="x" head="c" tail="d"/></interconnects></system>|}
  in
  (* type "x" unresolved is a compose-time concern; endpoint check: *)
  Alcotest.(check bool) "good endpoints" false
    (has_error (Validate.check_interconnect_endpoints good));
  let bad =
    elab
      {|<system id="s"><cpu id="c"/>
          <interconnects><interconnect id="l" type="x" head="c" tail="ghost"/></interconnects></system>|}
  in
  Alcotest.(check bool) "dangling tail" true (has_error (Validate.check_interconnect_endpoints bad))

let test_validate_duplicate_ids () =
  let bad = elab {|<system id="s"><cpu id="c"/><device id="c"/></system>|} in
  Alcotest.(check bool) "dup flagged" true (has_error (Validate.check_unique_ids bad))

let test_validate_required_attrs () =
  let bad = elab {|<power_state_machine name="m"><transitions><transition time="1" time_unit="us"/></transitions></power_state_machine>|} in
  Alcotest.(check bool) "transition needs head/tail" true
    (has_error (Validate.check_required_attrs bad))

let test_validate_bad_identifier () =
  let bad = elab {|<cpu name="0badname"/>|} in
  Alcotest.(check bool) "bad ident" true (has_error (Validate.check_identifiers bad))

let test_validate_psm () =
  let bad =
    elab
      {|<power_state_machine name="m">
          <power_states><power_state name="P1" frequency="1" frequency_unit="GHz" power="1" power_unit="W"/></power_states>
          <transitions><transition head="P1" tail="P9" time="1" time_unit="us" energy="1" energy_unit="nJ"/></transitions>
        </power_state_machine>|}
  in
  Alcotest.(check bool) "unknown state flagged" true (has_error (Validate.check_power_models bad))

(* Validation reads the model a fixed number of times: one power-model
   extraction for both power checks, one set of defined names for the
   references and hashed endpoint sets, so its allocation per element
   does not grow with the model. *)
let test_validate_allocation () =
  let lookup = Xpdl_repo.Repo.lookup (Lazy.force Testlib.repo) in
  List.iter
    (Testlib.check_words_per_element ~bound:48. "Validate.run" (Validate.run ~lookup))
    [ "liu_gpu_server"; "XScluster" ]

(* Instantiation builds each distinct subtree once: a subtree it does
   not change is returned itself, and a replicated group's member is
   walked once and its copies share it, so its allocation is a few words
   per composed element (rebuilding every copy took about 123). *)
let test_instantiate_allocation () =
  List.iter
    (Testlib.check_words_per_element ~input:Testlib.resolved ~bound:8. "Instantiate.run"
       (fun m -> Instantiate.run m))
    [ "liu_gpu_server"; "XScluster" ]

(* ------------------------------------------------------------------ *)
(* Power views *)

let psm_listing13 =
  {|<power_state_machine name="power_state_machine1" power_domain="xyCPU_core_pd">
      <power_states>
        <power_state name="P1" frequency="1.2" frequency_unit="GHz" power="20" power_unit="W" />
        <power_state name="P2" frequency="1.6" frequency_unit="GHz" power="27" power_unit="W" />
        <power_state name="P3" frequency="2.0" frequency_unit="GHz" power="36" power_unit="W" />
      </power_states>
      <transitions>
        <transition head="P2" tail="P1" time="1" time_unit="us" energy="2" energy_unit="nJ" />
        <transition head="P3" tail="P2" time="1" time_unit="us" energy="2" energy_unit="nJ" />
        <transition head="P1" tail="P3" time="2" time_unit="us" energy="5" energy_unit="nJ" />
      </transitions>
    </power_state_machine>|}

let test_power_psm_extraction () =
  let pm = Power.of_element (elab psm_listing13) in
  match pm.Power.pm_machines with
  | [ sm ] ->
      Alcotest.(check string) "name" "power_state_machine1" sm.Power.sm_name;
      Alcotest.(check (option string)) "domain" (Some "xyCPU_core_pd") sm.Power.sm_domain;
      Alcotest.(check int) "3 states" 3 (List.length sm.Power.sm_states);
      Alcotest.(check int) "3 transitions" 3 (List.length sm.Power.sm_transitions);
      let p2 = Option.get (Power.find_state sm "P2") in
      Alcotest.check approx "P2 freq" 1.6e9 p2.Power.ps_frequency;
      Alcotest.check approx "P2 power" 27. p2.Power.ps_power;
      let tr = Option.get (Power.find_transition sm ~from_state:"P2" ~to_state:"P1") in
      Alcotest.check approx "time" 1e-6 tr.Power.tr_time;
      Alcotest.check approx "energy" 2e-9 tr.Power.tr_energy;
      Alcotest.(check bool) "valid" false (has_error (Power.validate_state_machine sm))
  | l -> Alcotest.failf "expected 1 machine, got %d" (List.length l)

let test_power_instruction_table () =
  let src =
    {|<instructions name="isa" mb="suite">
        <inst name="fmul" energy="?" energy_unit="pJ" mb="fm1"/>
        <inst name="fixed" energy="7" energy_unit="pJ"/>
        <inst name="divsd">
          <data frequency="2.8" frequency_unit="GHz" energy="18.625" energy_unit="nJ"/>
          <data frequency="3.4" frequency_unit="GHz" energy="21.023" energy_unit="nJ"/>
        </inst>
      </instructions>|}
  in
  let pm = Power.of_element (elab src) in
  let isa = List.hd pm.Power.pm_isas in
  Alcotest.(check int) "3 instructions" 3 (List.length isa.Power.isa_instructions);
  Alcotest.(check (list string)) "unresolved" [ "fmul" ]
    (List.map (fun i -> i.Power.in_name) (Power.unresolved_instructions isa));
  let divsd = List.find (fun i -> i.Power.in_name = "divsd") isa.Power.isa_instructions in
  (* interpolation: midpoint of the table *)
  (match Power.instruction_energy_at divsd ~hz:3.1e9 with
  | Some e -> Alcotest.check (Alcotest.float 1e-11) "interp" 19.824e-9 e
  | None -> Alcotest.fail "divsd has a table");
  (* clamping *)
  (match Power.instruction_energy_at divsd ~hz:1e9 with
  | Some e -> Alcotest.check (Alcotest.float 1e-12) "clamp low" 18.625e-9 e
  | None -> Alcotest.fail "clamp low");
  let fixed = List.find (fun i -> i.Power.in_name = "fixed") isa.Power.isa_instructions in
  match Power.instruction_energy_at fixed ~hz:9e9 with
  | Some e -> Alcotest.check (Alcotest.float 1e-15) "fixed" 7e-12 e
  | None -> Alcotest.fail "fixed energy"

let test_power_domains_extraction () =
  let src =
    {|<power_domains name="pds">
        <power_domain name="main_pd" enableSwitchOff="false"><core type="Leon"/></power_domain>
        <group name="g" quantity="2">
          <power_domain name="d"><core type="S"/></power_domain>
        </group>
        <power_domain name="c_pd" switchoffCondition="g off"><memory type="CMX"/></power_domain>
      </power_domains>|}
  in
  let expanded, _ = Instantiate.run (elab src) in
  let domains = Power.extract_domains expanded in
  Alcotest.(check int) "4 domains" 4 (List.length domains);
  let main = List.find (fun d -> d.Power.pd_name = "main_pd") domains in
  Alcotest.(check bool) "main not switchable" false main.Power.pd_switchable;
  let cmx = List.find (fun d -> d.Power.pd_name = "c_pd") domains in
  (match cmx.Power.pd_condition with
  | Some c ->
      Alcotest.(check string) "requires group" "g" c.Power.requires_group;
      Alcotest.(check bool) "off" true (c.Power.required_state = `Off)
  | None -> Alcotest.fail "condition expected")

let test_psm_unreachable_state_warns () =
  let src =
    {|<power_state_machine name="m">
        <power_states>
          <power_state name="A" frequency="1" frequency_unit="GHz" power="1" power_unit="W"/>
          <power_state name="B" frequency="2" frequency_unit="GHz" power="2" power_unit="W"/>
        </power_states>
        <transitions/>
      </power_state_machine>|}
  in
  let pm = Power.of_element (elab src) in
  let diags = Power.validate_state_machine (List.hd pm.Power.pm_machines) in
  Alcotest.(check bool) "warns about B" true (List.length diags > 0)

let () =
  Alcotest.run "core"
    [
      ( "schema",
        [
          Alcotest.test_case "kind round-trip" `Quick test_kind_roundtrip;
          Alcotest.test_case "gpu -> device" `Quick test_gpu_maps_to_device;
          Alcotest.test_case "attr specs" `Quick test_attr_spec_lookup;
          Alcotest.test_case "containment" `Quick test_child_allowed;
          Alcotest.test_case "hardware kinds" `Quick test_is_hardware;
        ] );
      ( "elaborate",
        [
          Alcotest.test_case "structural attrs" `Quick test_elaborate_structural_attrs;
          Alcotest.test_case "metric_unit pairing" `Quick test_elaborate_quantity_pairing;
          Alcotest.test_case "param unit companion" `Quick test_elaborate_param_unit;
          Alcotest.test_case "? placeholder" `Quick test_elaborate_unknown_placeholder;
          Alcotest.test_case "typed attributes" `Quick test_elaborate_typed_attrs;
          Alcotest.test_case "bad enum" `Quick test_elaborate_bad_enum;
          Alcotest.test_case "bad int" `Quick test_elaborate_bad_int;
          Alcotest.test_case "unit dimension mismatch" `Quick test_elaborate_bad_unit_dimension;
          Alcotest.test_case "unknown attribute warns" `Quick test_elaborate_unknown_attr_warns;
          Alcotest.test_case "unknown tag preserved" `Quick test_elaborate_unknown_tag_preserved;
          Alcotest.test_case "containment checked" `Quick test_elaborate_containment;
          Alcotest.test_case "expression attribute" `Quick test_elaborate_expr_attr;
          Alcotest.test_case "metric param reference" `Quick test_elaborate_metric_param_reference;
          Alcotest.test_case "to_xml round-trip" `Quick test_to_xml_roundtrip;
        ] );
      ( "inheritance",
        [
          Alcotest.test_case "extends merge + override" `Quick test_extends_merge;
          Alcotest.test_case "keyed child override" `Quick test_keyed_child_override;
          Alcotest.test_case "multiple inheritance priority" `Quick
            test_multiple_inheritance_leftmost_wins;
          Alcotest.test_case "type instantiation identity" `Quick
            test_type_instantiation_keeps_identity;
          Alcotest.test_case "reference adopts name" `Quick test_reference_adopts_name;
          Alcotest.test_case "no double merge" `Quick test_no_double_merge;
          Alcotest.test_case "unresolved reference" `Quick test_unresolved_reference;
          Alcotest.test_case "cycle detection" `Quick test_inheritance_cycle;
          Alcotest.test_case "memory type is a label" `Quick test_memory_type_is_label;
          Alcotest.test_case "power-domain selector" `Quick test_power_domain_selector_not_resolved;
        ] );
      ( "instantiate",
        [
          Alcotest.test_case "listing 1 counts" `Quick test_group_expansion_counts;
          Alcotest.test_case "listing 1 member ids" `Quick test_group_member_ids;
          Alcotest.test_case "scoping preserved" `Quick test_scoping_preserved;
          Alcotest.test_case "quantity from param" `Quick test_quantity_param_binding;
          Alcotest.test_case "external config" `Quick test_quantity_external_config;
          Alcotest.test_case "unbound quantity" `Quick test_unbound_quantity_diagnosed;
          Alcotest.test_case "param substitution" `Quick test_param_substitution_into_quantity_attr;
          Alcotest.test_case "constraint satisfied" `Quick test_constraint_satisfied;
          Alcotest.test_case "constraint violated" `Quick test_constraint_violated;
          Alcotest.test_case "range check" `Quick test_range_check;
          Alcotest.test_case "unbound params listed" `Quick test_unbound_params_listed;
          Alcotest.test_case "unprefixed group naming" `Quick
            test_group_without_prefix_suffixes_names;
          Alcotest.test_case "zero quantity" `Quick test_zero_quantity_group;
          Alcotest.test_case "negative quantity" `Quick test_negative_quantity_diagnosed;
          Alcotest.test_case "param shadowing" `Quick test_param_shadowing;
          Alcotest.test_case "external config override" `Quick
            test_external_config_overrides_default;
          Alcotest.test_case "multiple unidentified members" `Quick
            test_group_multiple_unidentified_children;
          Alcotest.test_case "nested quantity product" `Quick test_nested_quantity_product;
          Alcotest.test_case "allocation per element" `Quick test_instantiate_allocation;
        ] );
      ( "validate",
        [
          Alcotest.test_case "interconnect endpoints" `Quick test_validate_interconnect_endpoints;
          Alcotest.test_case "duplicate ids" `Quick test_validate_duplicate_ids;
          Alcotest.test_case "required attributes" `Quick test_validate_required_attrs;
          Alcotest.test_case "identifier syntax" `Quick test_validate_bad_identifier;
          Alcotest.test_case "psm well-formedness" `Quick test_validate_psm;
          Alcotest.test_case "run allocation per element" `Quick test_validate_allocation;
        ] );
      ( "power",
        [
          Alcotest.test_case "listing 13 extraction" `Quick test_power_psm_extraction;
          Alcotest.test_case "listing 14 energy table" `Quick test_power_instruction_table;
          Alcotest.test_case "listing 12 domains" `Quick test_power_domains_extraction;
          Alcotest.test_case "unreachable state warning" `Quick test_psm_unreachable_state_warns;
        ] );
    ]
