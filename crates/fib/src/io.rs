//! Stream I/O and `std::net` interoperability.
//!
//! The text formats are line-oriented and human-editable:
//!
//! * FIBs — `a.b.c.d/len nh` ([`RouteTable::to_text`] round-trip);
//! * update traces — `A prefix nh` / `W prefix`;
//! * packet traces — one dotted-quad destination per line.
//!
//! Reader/writer functions take `R: Read` / `W: Write` by value, so a
//! `&mut` reference works too (the std blanket impls apply). Malformed
//! lines are reported by 1-based line number.
//!
//! The `clue` CLI reads and writes every FIB, packet trace and update
//! trace through this module (`gen-*`, `compress`, `simulate`, `replay`,
//! `serve`, `shardmap`, `restore`, `loadgen`, `trace info --export-*`).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::Ipv4Addr;

use crate::prefix::Prefix;
use crate::route::{RouteTable, Update};

impl Prefix {
    /// The network address as a [`std::net::Ipv4Addr`].
    #[must_use]
    pub fn network(self) -> Ipv4Addr {
        Ipv4Addr::from(self.bits())
    }

    /// Builds a prefix from an [`Ipv4Addr`] and a length (host bits are
    /// masked off).
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    #[must_use]
    pub fn from_addr(addr: Ipv4Addr, len: u8) -> Self {
        Prefix::new(u32::from(addr), len)
    }
}

/// Reads a routing table from the text format.
///
/// # Errors
///
/// Returns an error for I/O failures or malformed lines (reported with
/// their 1-based line number).
pub fn read_route_table<R: Read>(reader: R) -> io::Result<RouteTable> {
    let text = read_all(reader)?;
    RouteTable::from_text(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Writes a routing table in the text format.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_route_table<W: Write>(mut writer: W, table: &RouteTable) -> io::Result<()> {
    writer.write_all(table.to_text().as_bytes())
}

/// Reads an update trace (`A prefix nh` / `W prefix` lines; blanks and
/// `#` comments skipped).
///
/// # Errors
///
/// Returns an error for I/O failures or malformed lines (reported with
/// their 1-based line number).
pub fn read_updates<R: Read>(reader: R) -> io::Result<Vec<Update>> {
    parse_lines(reader, |line| {
        line.parse::<Update>().map_err(|e| e.to_string())
    })
}

/// Writes an update trace in the text format.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_updates<W: Write>(writer: W, updates: &[Update]) -> io::Result<()> {
    let mut w = io::BufWriter::new(writer);
    for u in updates {
        writeln!(w, "{u}")?;
    }
    w.flush()
}

/// Reads a packet trace: one dotted-quad destination per line, parsed
/// by [`Ipv4Addr`] (so an octet with a leading zero is rejected).
///
/// # Errors
///
/// Returns an error for I/O failures or malformed lines (reported with
/// their 1-based line number).
pub fn read_packets<R: Read>(reader: R) -> io::Result<Vec<u32>> {
    parse_lines(reader, |line| {
        line.parse::<Ipv4Addr>()
            .map(u32::from)
            .map_err(|_| format!("invalid address {line:?}"))
    })
}

/// Writes a packet trace: one dotted-quad destination per line.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_packets<W: Write>(writer: W, packets: &[u32]) -> io::Result<()> {
    let mut w = io::BufWriter::new(writer);
    for &addr in packets {
        writeln!(w, "{}", Ipv4Addr::from(addr))?;
    }
    w.flush()
}

fn read_all<R: Read>(mut reader: R) -> io::Result<String> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    Ok(text)
}

/// Parses every line of `reader` but blanks and `#` comments, trimmed,
/// through one reused buffer; a rejected line becomes `InvalidData`
/// prefixed with its 1-based number.
fn parse_lines<R: Read, T>(
    reader: R,
    mut parse: impl FnMut(&str) -> Result<T, String>,
) -> io::Result<Vec<T>> {
    let mut reader = BufReader::new(reader);
    let mut buf = String::new();
    let mut out = Vec::new();
    let mut lineno = 0;
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            return Ok(out);
        }
        lineno += 1;
        let line = buf.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let item = parse(line).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("line {lineno}: {e}"))
        })?;
        out.push(item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::NextHop;

    #[test]
    fn prefix_ipv4addr_interop() {
        let p = Prefix::from_addr(Ipv4Addr::new(10, 1, 2, 3), 8);
        assert_eq!(p.to_string(), "10.0.0.0/8");
        assert_eq!(p.network(), Ipv4Addr::new(10, 0, 0, 0));
    }

    #[test]
    fn route_table_stream_round_trip() {
        let mut t = RouteTable::new();
        t.insert("10.0.0.0/8".parse().unwrap(), NextHop(1));
        t.insert("192.168.0.0/16".parse().unwrap(), NextHop(2));
        let mut buf = Vec::new();
        write_route_table(&mut buf, &t).unwrap();
        let back = read_route_table(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn updates_stream_round_trip() {
        let updates = vec![
            Update::Announce {
                prefix: "10.0.0.0/8".parse().unwrap(),
                next_hop: NextHop(5),
            },
            Update::Withdraw {
                prefix: "11.0.0.0/8".parse().unwrap(),
            },
        ];
        let mut buf = Vec::new();
        write_updates(&mut buf, &updates).unwrap();
        assert_eq!(read_updates(buf.as_slice()).unwrap(), updates);
    }

    #[test]
    fn packets_stream_round_trip() {
        let packets = vec![0x0A00_0001, 0xC0A8_0101, 0];
        let mut buf = Vec::new();
        write_packets(&mut buf, &packets).unwrap();
        assert_eq!(read_packets(buf.as_slice()).unwrap(), packets);
    }

    #[test]
    fn readers_skip_comments_and_report_lines() {
        let updates = read_updates("# header\n\nA 10.0.0.0/8 1\n".as_bytes()).unwrap();
        assert_eq!(updates.len(), 1);
        let err = read_packets("10.0.0.1\nnot-an-ip\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"));
        let err = read_updates("Z 10.0.0.0/8\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }
}
