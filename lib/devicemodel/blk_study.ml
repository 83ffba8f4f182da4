type mode = Exploit | Injection

type outcome = {
  o_mode : mode;
  o_off_by_one : bool;
  o_status : int64 option;
  o_state : bool;
  o_disclosure : bool;
}

let im =
  Intrusion_model.make ~name:"IM-blkback-oob-read"
    ~source:Intrusion_model.Device_driver
    ~interface:(Intrusion_model.Device_emulation "blkback ring")
    ~target:Intrusion_model.Device_model
    ~functionality:Abusive_functionality.Read_unauthorized_memory
    "A frontend request reads past the backend's disk into adjacent backend memory."

let ring_pfn = 45
let data_pfn = 46

let secret_prefix = String.sub Blkdev.secret 0 14

let data_has_secret fe =
  match Blkdev.read_data fe ~off:0 ~len:(String.length secret_prefix) with
  | Ok b -> Bytes.to_string b = secret_prefix
  | Error _ -> false

let run ~off_by_one mode =
  let tb = Testbed.create_pooled Version.V4_13 in
  let hv = tb.Testbed.hv in
  Injector.install hv;
  let dom0 = Kernel.dom tb.Testbed.dom0 in
  let be = Blkdev.create_backend hv ~backend_dom:dom0 ~off_by_one in
  let fe =
    match
      Blkdev.connect tb.Testbed.attacker ~backend_domid:dom0.Domain.id ~ring_pfn ~data_pfn
    with
    | Ok fe -> fe
    | Error e -> failwith (Errno.to_string e)
  in
  match mode with
  | Exploit ->
      let id =
        match Blkdev.submit fe ~op:Blkdev.Ring.op_read ~sector:Blkdev.sectors with
        | Ok id -> id
        | Error e -> failwith (Errno.to_string e)
      in
      ignore (Blkdev.backend_poll be fe);
      let status = Blkdev.response_status fe id in
      let state = data_has_secret fe in
      { o_mode = mode; o_off_by_one = off_by_one; o_status = status; o_state = state;
        o_disclosure = state }
  | Injection ->
      (* arbitrary_access: lift the adjacent backend frame straight into
         the guest's data page *)
      let k = tb.Testbed.attacker in
      let secret_addr = Addr.maddr_of_mfn (Blkdev.secret_frame be) in
      let data_addr =
        Addr.maddr_of_mfn (Option.get (Domain.mfn_of_pfn (Kernel.dom k) data_pfn))
      in
      (match
         Injector.read k ~addr:secret_addr ~action:Injector.Arbitrary_read_physical ~len:512
       with
      | Ok bytes -> (
          match
            Injector.write k ~addr:data_addr ~action:Injector.Arbitrary_write_physical bytes
          with
          | Ok () -> ()
          | Error e -> failwith (Errno.to_string e))
      | Error e -> failwith (Errno.to_string e));
      let state = data_has_secret fe in
      { o_mode = mode; o_off_by_one = off_by_one; o_status = None; o_state = state;
        o_disclosure = state }

let matrix () =
  List.concat_map
    (fun off_by_one -> [ run ~off_by_one Exploit; run ~off_by_one Injection ])
    [ true; false ]

let render outcomes =
  Report.table
    ~title:"Block-backend study: OOB-sector exploit vs injection (secret in guest data page)"
    ~header:[ "Backend"; "Mode"; "Backend status"; "Err.State"; "Disclosure" ]
    (List.map
       (fun o ->
         [
           (if o.o_off_by_one then "off-by-one" else "fixed");
           (match o.o_mode with Exploit -> "exploit" | Injection -> "injection");
           (match o.o_status with Some s -> Int64.to_string s | None -> "-");
           Report.check o.o_state;
           Report.check o.o_disclosure;
         ])
       outcomes)
