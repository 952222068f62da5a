//! The DPF correctness oracle and the filter family the demux and
//! compile workloads draw from.
//!
//! Every filter set the benchmark builds is *chain-structured*: whenever
//! several filters accept one packet, their atom lists are prefixes of
//! one another (a destination's catch-all, then a port filter under it).
//! The longest matching filter is then the one answer a longest-match
//! classifier must give, and the oracle computes it from
//! [`Filter::matches`] alone — never from the trie or generated code.

use crate::rng::Rng;
use dpf::packet::{
    self, PacketSpec, ETHERTYPE_IP, ETH_LEN, ETH_TYPE_OFF, IP_DST_OFF, IP_PROTO_OFF,
};
use dpf::{FieldSize, Filter, FilterBuilder};

/// Offset of the destination port in a 20-byte-IP-header frame.
pub const DST_PORT_OFF: u32 = packet::DST_PORT_OFF;

fn ip_prefix(dst_ip: u32) -> FilterBuilder {
    FilterBuilder::new()
        .eq_u16(ETH_TYPE_OFF, ETHERTYPE_IP)
        .masked(ETH_LEN, FieldSize::U8, 0xf0, 0x40)
        .eq_u32(IP_DST_OFF, dst_ip)
}

/// IPv4 to `dst_ip`, any protocol and port: the per-destination
/// catch-all every port filter for that destination extends.
pub fn catch_all(dst_ip: u32) -> Filter {
    ip_prefix(dst_ip).build().expect("valid catch-all")
}

/// `proto` to `dst_ip:dst_port` (20-byte IP header).
pub fn port_filter(dst_ip: u32, proto: u8, dst_port: u16) -> Filter {
    ip_prefix(dst_ip)
        .eq_u8(IP_PROTO_OFF, proto)
        .eq_u16(DST_PORT_OFF, dst_port)
        .build()
        .expect("valid port filter")
}

/// TCP to `dst_ip:dst_port`, following the IP header length with a
/// shift atom (variable IHL).
pub fn shift_filter(dst_ip: u32, dst_port: u16) -> Filter {
    ip_prefix(dst_ip)
        .eq_u8(IP_PROTO_OFF, packet::IPPROTO_TCP)
        .shift(ETH_LEN, FieldSize::U8, 0x0f, 2)
        .eq_u16(ETH_LEN + 2, dst_port)
        .build()
        .expect("valid shift filter")
}

/// `n` distinct ports in `1024..10000`, none of them in `taken`: a
/// contiguous run from a random base when `dense` (jump-table territory
/// under default options; ports of the run found in `taken` are skipped
/// and made up with random ones), otherwise random.
pub fn ports(rng: &mut Rng, n: usize, dense: bool, taken: &[u16]) -> Vec<u16> {
    let mut out: Vec<u16> = Vec::with_capacity(n);
    if dense {
        let base = 1024 + rng.below(8000) as u16;
        out.extend((base..base + n as u16).filter(|p| !taken.contains(p)));
    }
    while out.len() < n {
        let p = 1024 + rng.below(8976) as u16;
        if !out.contains(&p) && !taken.contains(&p) {
            out.push(p);
        }
    }
    out
}

/// A header-only Ethernet/IPv4/TCP-or-UDP frame.
pub fn frame(proto: u8, src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16) -> Vec<u8> {
    packet::build(&PacketSpec {
        proto,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        payload_len: 0,
    })
}

/// `frame` with a 24-byte IP header (IHL 6): the transport header, and
/// with it the destination port, moves 4 bytes further in. The fixed
/// port offset then reads option bytes (zero, never a filter's port).
pub fn with_ihl6(mut p: Vec<u8>) -> Vec<u8> {
    p[ETH_LEN as usize] = 0x46;
    let at = (ETH_LEN + 20) as usize;
    p.splice(at..at, [0u8; 4]);
    p
}

/// The longest filter accepting `msg`, by [`Filter::matches`].
///
/// # Panics
///
/// When two accepting filters are not a strict prefix chain: the set
/// is ambiguous, which is a bug in the benchmark's inputs.
pub fn longest_match<'a>(
    filters: impl IntoIterator<Item = (u32, &'a Filter)>,
    msg: &[u8],
) -> Option<u32> {
    let mut best: Option<(u32, &Filter)> = None;
    for (id, f) in filters {
        if !f.matches(msg) {
            continue;
        }
        best = Some(match best {
            None => (id, f),
            Some((bid, b)) => {
                let (short, long) = if f.atoms().len() > b.atoms().len() {
                    (b, f)
                } else {
                    (f, b)
                };
                assert!(
                    short.atoms().len() < long.atoms().len()
                        && long.atoms().starts_with(short.atoms()),
                    "ambiguous filter set: filters {bid} and {id} both accept a packet \
                     without forming a prefix chain"
                );
                if std::ptr::eq(long, f) {
                    (id, f)
                } else {
                    (bid, b)
                }
            }
        });
    }
    best.map(|(id, _)| id)
}

/// The first filter (in the given order) accepting `msg`: the answer a
/// first-match interpreter gives. Used only to explain a mismatch, never
/// as the expected answer.
pub fn first_match<'a>(
    filters: impl IntoIterator<Item = (u32, &'a Filter)>,
    msg: &[u8],
) -> Option<u32> {
    filters
        .into_iter()
        .find(|(_, f)| f.matches(msg))
        .map(|(id, _)| id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpf::packet::{IPPROTO_TCP, IPPROTO_UDP};

    const IP: u32 = 0x0a01_0203;

    fn chain() -> Vec<Filter> {
        vec![
            catch_all(IP),
            port_filter(IP, IPPROTO_TCP, 80),
            port_filter(IP, IPPROTO_UDP, 53),
            shift_filter(IP, 8080),
        ]
    }

    #[test]
    fn longest_match_resolves_chains() {
        let set = chain();
        let ids = || set.iter().enumerate().map(|(i, f)| (i as u32, f));
        let tcp80 = frame(IPPROTO_TCP, 1, IP, 999, 80);
        assert_eq!(longest_match(ids(), &tcp80), Some(1));
        assert_eq!(
            longest_match(ids(), &frame(IPPROTO_UDP, 1, IP, 9, 53)),
            Some(2)
        );
        assert_eq!(
            longest_match(ids(), &frame(IPPROTO_TCP, 1, IP, 9, 81)),
            Some(0)
        );
        let shifted = with_ihl6(frame(IPPROTO_TCP, 1, IP, 9, 8080));
        assert_eq!(longest_match(ids(), &shifted), Some(3));
        assert_eq!(
            longest_match(ids(), &frame(IPPROTO_TCP, 1, IP + 1, 9, 80)),
            None
        );
        // Truncated inside the port: only the catch-all can still match.
        assert_eq!(longest_match(ids(), &tcp80[..37]), Some(0));
        assert_eq!(longest_match(ids(), &tcp80[..20]), None);
    }

    #[test]
    fn oracle_flags_a_first_match_classifier() {
        // The library's first-match interpreter over a chain set whose
        // catch-all was installed first.
        let set = chain();
        let mut mpf = dpf::mpf::Mpf::new();
        for f in &set {
            mpf.insert(f);
        }
        let ids = || set.iter().enumerate().map(|(i, f)| (i as u32, f));
        let tcp80 = frame(IPPROTO_TCP, 1, IP, 999, 80);
        assert_eq!(mpf.classify(&tcp80), Some(0));
        assert_eq!(first_match(ids(), &tcp80), Some(0));
        assert_ne!(
            mpf.classify(&tcp80),
            longest_match(ids(), &tcp80),
            "a first-match answer on a chain must be flagged"
        );
        // Where only one filter matches, both agree.
        let other = frame(IPPROTO_TCP, 1, IP, 9, 81);
        assert_eq!(mpf.classify(&other), longest_match(ids(), &other));
    }

    #[test]
    #[should_panic(expected = "ambiguous filter set")]
    fn non_chain_overlap_is_refused() {
        // Same destination and port via the fixed offset and via the
        // shift: both accept an IHL-5 packet, neither extends the other.
        let set = [port_filter(IP, IPPROTO_TCP, 80), shift_filter(IP, 80)];
        let ids = set.iter().enumerate().map(|(i, f)| (i as u32, f));
        longest_match(ids, &frame(IPPROTO_TCP, 1, IP, 9, 80));
    }
}
