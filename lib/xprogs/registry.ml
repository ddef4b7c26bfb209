(* The bytecode registry: resolves the program names a manifest mentions
   to their compiled artifacts — the moral equivalent of the directory of
   .o files the real libxbgp loads from disk. *)

let all : Xbgp.Xprog.t list =
  [
    Igp_filter.program;
    Route_reflector.program;
    Origin_validation.program;
    Valley_free.program;
    Geoloc.program;
    Med_compare.program;
    Prefix_limit.program;
    Community_strip.program;
    Flap_damping.program;
    Rate_limit.program;
  ]

let find name =
  List.find_opt (fun (p : Xbgp.Xprog.t) -> p.name = name) all

(* Stock attachment manifests, by program name — the menu the fuzzer and
   the CLI draw from. *)
let manifests =
  [
    ("igp_filter", Igp_filter.manifest);
    ("route_reflector", Route_reflector.manifest);
    ("origin_validation", Origin_validation.manifest);
    ("valley_free", Valley_free.manifest);
    ("geoloc", Geoloc.manifest);
    ("med_compare", Med_compare.manifest);
    ("prefix_limit", Prefix_limit.manifest);
    ("community_strip", Community_strip.manifest);
    ("flap_damping", Flap_damping.manifest);
    ("rate_limit", Rate_limit.manifest);
  ]

let find_manifest name = List.assoc_opt name manifests

(** Build a VMM for [host] and load [manifest] into it.
    @raise Invalid_argument when the manifest does not apply cleanly. *)
let vmm_of_manifest ?heap_size ?budget ?engine ?telemetry ~host manifest =
  let vmm = Xbgp.Vmm.create ?heap_size ?budget ?engine ?telemetry ~host () in
  (match Xbgp.Manifest.load vmm ~registry:find manifest with
  | Ok () -> ()
  | Error e -> invalid_arg ("Registry.vmm_of_manifest: " ^ e));
  vmm
