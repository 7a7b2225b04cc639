#pragma once

#include "mh/common/error.h"
#include "mh/common/serde.h"
#include "mh/hdfs/types.h"

/// \file wire.h
/// Serde specializations for the HDFS control-plane types, so RPC bodies
/// can be marshalled with pack()/unpack(). Field order is the wire contract;
/// append-only evolution.

namespace mh {

template <>
struct Serde<hdfs::Block> {
  static void encode(ByteWriter& w, const hdfs::Block& v) {
    w.writeVarU64(v.id);
    w.writeVarU64(v.size);
  }
  static hdfs::Block decode(ByteReader& r) {
    hdfs::Block v;
    v.id = r.readVarU64();
    v.size = r.readVarU64();
    return v;
  }
};

template <>
struct Serde<hdfs::LocatedBlock> {
  static void encode(ByteWriter& w, const hdfs::LocatedBlock& v) {
    Serde<hdfs::Block>::encode(w, v.block);
    w.writeVarU64(v.offset);
    Serde<std::vector<std::string>>::encode(w, v.hosts);
  }
  static hdfs::LocatedBlock decode(ByteReader& r) {
    hdfs::LocatedBlock v;
    v.block = Serde<hdfs::Block>::decode(r);
    v.offset = r.readVarU64();
    v.hosts = Serde<std::vector<std::string>>::decode(r);
    return v;
  }
};

template <>
struct Serde<hdfs::FileStatus> {
  static void encode(ByteWriter& w, const hdfs::FileStatus& v) {
    w.writeBytes(v.path);
    w.writeBool(v.is_dir);
    w.writeVarU64(v.length);
    w.writeVarU64(v.replication);
    w.writeVarU64(v.block_size);
    w.writeVarI64(v.mtime_ms);
  }
  static hdfs::FileStatus decode(ByteReader& r) {
    hdfs::FileStatus v;
    v.path = r.readString();
    v.is_dir = r.readBool();
    v.length = r.readVarU64();
    v.replication = static_cast<uint16_t>(r.readVarU64());
    v.block_size = r.readVarU64();
    v.mtime_ms = r.readVarI64();
    return v;
  }
};

template <>
struct Serde<hdfs::DataNodeInfo> {
  static void encode(ByteWriter& w, const hdfs::DataNodeInfo& v) {
    w.writeBytes(v.host);
    w.writeBytes(v.rack);
    w.writeVarU64(v.capacity_bytes);
    w.writeVarU64(v.used_bytes);
    w.writeVarU64(v.num_blocks);
    w.writeVarI64(v.millis_since_heartbeat);
    w.writeBool(v.alive);
  }
  static hdfs::DataNodeInfo decode(ByteReader& r) {
    hdfs::DataNodeInfo v;
    v.host = r.readString();
    v.rack = r.readString();
    v.capacity_bytes = r.readVarU64();
    v.used_bytes = r.readVarU64();
    v.num_blocks = r.readVarU64();
    v.millis_since_heartbeat = r.readVarI64();
    v.alive = r.readBool();
    return v;
  }
};

/// Fixed 4 bytes per CRC (HDFS's checksum layout): a CRC is uniformly
/// random, so a varint would spend 5 bytes on most of them.
template <>
struct Serde<hdfs::ChunkCrcs> {
  static void encode(ByteWriter& w, const hdfs::ChunkCrcs& v) {
    w.writeVarU64(v.values.size());
    for (const uint32_t crc : v.values) w.writeU32(crc);
  }
  static hdfs::ChunkCrcs decode(ByteReader& r) {
    const uint64_t n = r.readVarU64();
    if (n > r.remaining() / 4) {
      throw InvalidArgumentError("chunk CRC count past end of buffer");
    }
    hdfs::ChunkCrcs v;
    v.values.resize(n);
    for (uint32_t& crc : v.values) crc = r.readU32();
    return v;
  }
};

template <>
struct Serde<hdfs::DataNodeCommand> {
  static void encode(ByteWriter& w, const hdfs::DataNodeCommand& v) {
    w.writeU8(static_cast<uint8_t>(v.kind));
    w.writeVarU64(v.block);
    Serde<std::vector<std::string>>::encode(w, v.targets);
  }
  static hdfs::DataNodeCommand decode(ByteReader& r) {
    hdfs::DataNodeCommand v;
    v.kind = static_cast<hdfs::DataNodeCommand::Kind>(r.readU8());
    v.block = r.readVarU64();
    v.targets = Serde<std::vector<std::string>>::decode(r);
    return v;
  }
};

template <>
struct Serde<hdfs::HeartbeatReply> {
  static void encode(ByteWriter& w, const hdfs::HeartbeatReply& v) {
    w.writeBool(v.reregister);
    w.writeBool(v.request_block_report);
    Serde<std::vector<hdfs::DataNodeCommand>>::encode(w, v.commands);
  }
  static hdfs::HeartbeatReply decode(ByteReader& r) {
    hdfs::HeartbeatReply v;
    v.reregister = r.readBool();
    v.request_block_report = r.readBool();
    v.commands = Serde<std::vector<hdfs::DataNodeCommand>>::decode(r);
    return v;
  }
};

template <>
struct Serde<hdfs::FsckReport> {
  static void encode(ByteWriter& w, const hdfs::FsckReport& v) {
    w.writeVarU64(v.total_files);
    w.writeVarU64(v.total_dirs);
    w.writeVarU64(v.total_bytes);
    w.writeVarU64(v.total_blocks);
    w.writeVarU64(v.min_replication_blocks);
    w.writeVarU64(v.under_replicated);
    w.writeVarU64(v.over_replicated);
    w.writeVarU64(v.corrupt_blocks);
    w.writeVarU64(v.missing_blocks);
    w.writeBool(v.healthy);
  }
  static hdfs::FsckReport decode(ByteReader& r) {
    hdfs::FsckReport v;
    v.total_files = r.readVarU64();
    v.total_dirs = r.readVarU64();
    v.total_bytes = r.readVarU64();
    v.total_blocks = r.readVarU64();
    v.min_replication_blocks = r.readVarU64();
    v.under_replicated = r.readVarU64();
    v.over_replicated = r.readVarU64();
    v.corrupt_blocks = r.readVarU64();
    v.missing_blocks = r.readVarU64();
    v.healthy = r.readBool();
    return v;
  }
};

}  // namespace mh
