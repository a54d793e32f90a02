type perms = { read : bool; write : bool; exec : bool }

type walk_ok = {
  pa : int;
  perms : perms;
  level : int;
  page_bytes : int;
  pte_addr : int;
}

type walk_err = { fault_level : int }

let index ~level ipa = (ipa lsr (39 - (9 * level))) land 0x1FF

let pte_addr_of ~table ~level ipa = table + (8 * index ~level ipa)

let create_root phys = Phys.alloc_frame phys

let perms_of pte =
  { read = Pte.s2_read pte; write = Pte.s2_write pte; exec = Pte.s2_exec pte }

let rec walk_from phys ~table ~level ~ipa =
  let pte_addr = pte_addr_of ~table ~level ipa in
  let pte = Phys.read64 phys pte_addr in
  if not (Pte.valid pte) then Error { fault_level = level }
  else if level = 3 then
    Ok { pa = Pte.out_addr pte lor (ipa land 0xFFF);
         perms = perms_of pte; level; page_bytes = 4096; pte_addr }
  else if Pte.is_table ~level pte then
    walk_from phys ~table:(Pte.out_addr pte) ~level:(level + 1) ~ipa
  else if level = 2 then
    Ok { pa = Pte.out_addr pte lor (ipa land 0x1FFFFF);
         perms = perms_of pte; level; page_bytes = 2 * 1024 * 1024;
         pte_addr }
  else Error { fault_level = level }

let walk phys ~root ~ipa = walk_from phys ~table:root ~level:1 ~ipa

let rec descend phys ~table ~level ~target_level ~ipa =
  if level = target_level then pte_addr_of ~table ~level ipa
  else
    let pte_addr = pte_addr_of ~table ~level ipa in
    let pte = Phys.read64 phys pte_addr in
    let next =
      if Pte.is_table ~level pte then Pte.out_addr pte
      else begin
        let t = Phys.alloc_frame phys in
        Phys.write64 phys pte_addr (Pte.make_s2_table ~pa:t);
        t
      end
    in
    descend phys ~table:next ~level:(level + 1) ~target_level ~ipa

let map_page phys ~root ~ipa ~pa { read; write; exec } =
  let pte_addr = descend phys ~table:root ~level:1 ~target_level:3 ~ipa in
  Phys.write64 phys pte_addr (Pte.make_s2_page ~pa ~read ~write ~exec)

let leaf_pte_addr phys ~root ~ipa =
  match walk phys ~root ~ipa with
  | Ok { pte_addr; _ } -> Some pte_addr
  | Error _ -> None

let unmap phys ~root ~ipa =
  match leaf_pte_addr phys ~root ~ipa with
  | Some a -> Phys.write64 phys a 0
  | None -> ()

let set_perms phys ~root ~ipa { read; write; exec } =
  match walk phys ~root ~ipa with
  | Ok { pte_addr; _ } ->
      let old = Phys.read64 phys pte_addr in
      let base = Pte.out_addr old in
      let fresh = Pte.make_s2_page ~pa:base ~read ~write ~exec in
      let fresh =
        if Lz_arm.Bits.bit old 1 then fresh
        else fresh land lnot 0b10 lor 0b01
      in
      Phys.write64 phys pte_addr fresh;
      true
  | Error _ -> false

let map_identity_range phys ~root ~ipa ~len perms =
  let pages = (len + 4095) / 4096 in
  for i = 0 to pages - 1 do
    let a = Lz_arm.Bits.align_down ipa 4096 + (i * 4096) in
    map_page phys ~root ~ipa:a ~pa:a perms
  done
